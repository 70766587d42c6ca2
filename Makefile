# Local targets mirror .github/workflows/ci.yml step for step, so "it
# passes locally" and "it passes in CI" mean the same thing.

GO ?= go

.PHONY: all build test race identity fuzz-smoke cuts lint fmt bench microbench bench-smoke run smoke smoke-wide smoke-matrix smoke-sweep smoke-faults

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test -count=1 ./...

race:
	$(GO) test -race -count=1 ./...

# identity regenerates the byte-identity corpus
# (cmd/manasim/testdata/identity.txt: one manasim invocation per row,
# pinned by the FNV-64a of its stdout and stderr and its exit code) from
# this tree, printing the argument vector of every row that moved. CI
# runs it and fails when the file then differs from the committed one.
identity:
	$(GO) test -count=1 -v ./cmd/manasim -run '^TestIdentityCorpus$$' -update

# fuzz-smoke runs each differential-oracle fuzz target as a fuzzer (plain
# `go test` only replays their seed corpus): the sparse page store
# against a flat []byte model, the zero-run FNV kernel against hash/fnv,
# the FNV segment fold against the byte loop, the dense netsim pair
# tables against a map[Pair] model, the ops
# ranks resolve from shared compiled streams against the per-rank
# materialising compiler, the branch-free event heap against a sort,
# and the handle table against a map. -fuzz takes one target in one
# package per run.
# -fuzzminimizetime 1x: minimising every coverage-expanding input is on
# by default with a 60 s budget and stalls a 10 s run after its first
# find; a failing input is still reported and saved under testdata/fuzz.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzSparseVsFlat$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/memsim
	$(GO) test -run='^$$' -fuzz='^FuzzFNVKernel$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/fnv1a
	$(GO) test -run='^$$' -fuzz='^FuzzSegmentFold$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/fnv1a
	$(GO) test -run='^$$' -fuzz='^FuzzNetsimVsMap$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/netsim
	$(GO) test -run='^$$' -fuzz='^FuzzCompileVsMaterialised$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/scenario
	$(GO) test -run='^$$' -fuzz='^FuzzQueueVsSort$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/vtime
	$(GO) test -run='^$$' -fuzz='^FuzzTableVsMap$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/virtid

# cuts runs the exhaustive checkpoint-anywhere test at a wider scope
# than `go test ./...` affords: ranks {2, 3, 5, 8, 13} and 10 steps, about
# 67,000 crash-and-recover runs (~15 s on a 2-CPU Xeon 2.1 GHz). CI's
# fault-matrix job runs it.
cuts:
	$(GO) test -count=1 -run='^TestEveryCutIsSafe$$' ./internal/coordinator -args -cuts.wide

lint:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needs to be run on:"; echo "$$out"; exit 1; \
	fi
	$(GO) run ./cmd/isolint

fmt:
	gofmt -w .

# bench is the repository benchmark (bench/, BENCHMARK.json): manasim as
# a child process on five named workloads, end to end and layer by layer.
# It is the one measurement system; `go run ./bench -compare old.json
# new.json` gates a change against its parent.
bench:
	$(GO) run ./bench

# microbench runs every Benchmark* function — one layer each, several
# carrying allocation assertions no test repeats. CI's bench-smoke job
# runs the same command at -benchtime=1x; the numbers gate nothing.
microbench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# bench-smoke mirrors CI's bench-smoke job: the repository benchmark
# (bench/, BENCHMARK.json) at 1/16 of its rank counts, for its checks —
# byte-identical stdout, fault-free fingerprint after recovery, islands
# ≡ serial, sweep pools agree — not for its numbers.
bench-smoke:
	$(GO) run ./bench -smoke

run:
	$(GO) run ./cmd/manasim

# smoke mirrors CI's basic determinism check: the default failure/restart
# scenario executed twice and compared byte for byte.
smoke:
	$(GO) run ./cmd/manasim > /tmp/manasim-run1.txt
	$(GO) run ./cmd/manasim > /tmp/manasim-run2.txt
	cmp /tmp/manasim-run1.txt /tmp/manasim-run2.txt

# smoke-wide mirrors CI's three memory smokes; each run prints its peak
# RSS (ru_maxrss of the child, in KiB on Linux), wall and system time,
# and holds the RSS under a ceiling. Wide: 65536 ranks that each write
# 150 bytes, twice, byte-identical, under 450 MiB — memory must follow the
# bytes a run writes, not its address space or its page size (648 MiB
# with a 4 KiB page and a private memory map per rank). Very wide: 262144
# ranks, once, under 2 GiB (2.8 GiB and 40 s before). Deep: the
# benchmark's deep-stencil workload (512 ranks, 800 steps, 2.2 M ops),
# twice, byte-identical, under 110 MiB — memory must follow the spec, not
# one private copy of the op stream per rank (217 MiB). The system time
# is the kernel faulting pages in: the term that grows faster than the
# rank count when per-rank memory does.
# RSS_RUN takes: output file, label, ceiling in MiB, manasim arguments.
RSS_RUN = python3 -c 'import resource, subprocess, sys, time; \
	out, label, limit = sys.argv[1], sys.argv[2], int(sys.argv[3]); \
	start = time.time(); \
	subprocess.run(["/tmp/manasim-wide"] + sys.argv[4:], stdout=open(out, "wb"), check=True); \
	wall, ru = time.time() - start, resource.getrusage(resource.RUSAGE_CHILDREN); \
	mib = ru.ru_maxrss / 1024; \
	print("smoke-wide: %s peak RSS %.0f MiB, wall %.2f s, sys %.2f s" % (label, mib, wall, ru.ru_stime)); \
	sys.exit(0 if mib < limit else "smoke-wide: %s peak RSS over %d MiB" % (label, limit))'
smoke-wide:
	$(GO) build -o /tmp/manasim-wide ./cmd/manasim
	@set -e; for i in 1 2; do \
	  $(RSS_RUN) /tmp/manasim-wide$$i.txt "wide run $$i" 450 -ranks 65536 -steps 5 -no-fail; \
	done
	cmp /tmp/manasim-wide1.txt /tmp/manasim-wide2.txt
	@$(RSS_RUN) /dev/null "very wide run" 2048 -ranks 262144 -steps 5 -no-fail
	@set -e; for i in 1 2; do \
	  $(RSS_RUN) /tmp/manasim-deep$$i.txt "deep run $$i" 110 -spec stencil -ranks 512 -steps 800 -no-fail; \
	done
	cmp /tmp/manasim-deep1.txt /tmp/manasim-deep2.txt

# smoke-matrix mirrors CI's determinism matrix: every combination of
# handle-table implementation, image mode and library scenario spec runs
# twice at 512 ranks and must print byte-identical reports — and once
# more with the sharded parallel scheduler (-islands 8 -workers 4),
# which must reproduce the serial report byte for byte.
smoke-matrix:
	$(GO) build -o /tmp/manasim-matrix ./cmd/manasim
	@set -e; \
	for virtid in mutex sharded; do \
	  for inc in "" "-incremental"; do \
	    for spec in default overlap stencil master-worker bursty-alltoall pipeline; do \
	      echo "smoke-matrix: -virtid $$virtid $$inc -spec $$spec"; \
	      /tmp/manasim-matrix -virtid $$virtid $$inc -spec $$spec \
	        -ranks 512 -steps 5 -ckpt-at 200us -no-fail > /tmp/manasim-matrix1.txt; \
	      /tmp/manasim-matrix -virtid $$virtid $$inc -spec $$spec \
	        -ranks 512 -steps 5 -ckpt-at 200us -no-fail > /tmp/manasim-matrix2.txt; \
	      cmp /tmp/manasim-matrix1.txt /tmp/manasim-matrix2.txt; \
	      /tmp/manasim-matrix -virtid $$virtid $$inc -spec $$spec \
	        -ranks 512 -steps 5 -ckpt-at 200us -no-fail \
	        -islands 8 -workers 4 > /tmp/manasim-matrix3.txt; \
	      cmp /tmp/manasim-matrix1.txt /tmp/manasim-matrix3.txt; \
	    done; \
	  done; \
	done
	@set -e; \
	for st in direct staged staged-compressed; do \
	  inc=""; if [ $$st = staged-compressed ]; then inc="-incremental"; fi; \
	  echo "smoke-matrix: storage -storage $$st $$inc"; \
	  /tmp/manasim-matrix -storage $$st $$inc \
	    -ranks 512 -steps 5 -ckpt-at 200us -no-fail > /tmp/manasim-matrix1.txt; \
	  /tmp/manasim-matrix -storage $$st $$inc \
	    -ranks 512 -steps 5 -ckpt-at 200us -no-fail > /tmp/manasim-matrix2.txt; \
	  cmp /tmp/manasim-matrix1.txt /tmp/manasim-matrix2.txt; \
	  /tmp/manasim-matrix -storage $$st $$inc \
	    -ranks 512 -steps 5 -ckpt-at 200us -no-fail \
	    -islands 8 -workers 4 > /tmp/manasim-matrix3.txt; \
	  cmp /tmp/manasim-matrix1.txt /tmp/manasim-matrix3.txt; \
	done

# smoke-faults mirrors CI's fault-matrix job: every canned fault plan
# under cmd/manasim/testdata/faults/ — single and multi-failure, torn
# and corrupt images, restart-time double faults — runs twice and must
# print byte-identical output, in three modes: serial, the sharded
# parallel scheduler (-islands 8 -workers 4), and incremental images
# (-incremental -full-every 2). The parallel run must also reproduce
# the serial bytes exactly. The staging/ plans then run against the
# fast-staged storage document: a crash mid-drain must fall back to the
# newest durable generation and a torn drain must surface at restart,
# byte-identically serial and parallel.
smoke-faults:
	$(GO) build -o /tmp/manasim-faults ./cmd/manasim
	@set -e; \
	for plan in cmd/manasim/testdata/faults/*.json; do \
	  echo "smoke-faults: $$plan"; \
	  /tmp/manasim-faults -faults $$plan > /tmp/manasim-faults1.txt; \
	  /tmp/manasim-faults -faults $$plan > /tmp/manasim-faults2.txt; \
	  cmp /tmp/manasim-faults1.txt /tmp/manasim-faults2.txt; \
	  /tmp/manasim-faults -faults $$plan -islands 8 -workers 4 > /tmp/manasim-faults3.txt; \
	  cmp /tmp/manasim-faults1.txt /tmp/manasim-faults3.txt; \
	  /tmp/manasim-faults -faults $$plan -incremental -full-every 2 > /tmp/manasim-faults4.txt; \
	  /tmp/manasim-faults -faults $$plan -incremental -full-every 2 > /tmp/manasim-faults5.txt; \
	  cmp /tmp/manasim-faults4.txt /tmp/manasim-faults5.txt; \
	done
	@set -e; \
	for plan in cmd/manasim/testdata/faults/staging/*.json; do \
	  echo "smoke-faults: $$plan (staged)"; \
	  /tmp/manasim-faults -incremental -faults $$plan \
	    -storage cmd/manasim/testdata/storage/fast-staged.json > /tmp/manasim-faults1.txt; \
	  /tmp/manasim-faults -incremental -faults $$plan \
	    -storage cmd/manasim/testdata/storage/fast-staged.json > /tmp/manasim-faults2.txt; \
	  cmp /tmp/manasim-faults1.txt /tmp/manasim-faults2.txt; \
	  /tmp/manasim-faults -incremental -faults $$plan \
	    -storage cmd/manasim/testdata/storage/fast-staged.json \
	    -islands 8 -workers 4 > /tmp/manasim-faults3.txt; \
	  cmp /tmp/manasim-faults1.txt /tmp/manasim-faults3.txt; \
	done

# smoke-sweep mirrors CI's fleet determinism check: a small -sweep grid
# run twice, with the aggregates — cell hashes, byte counts, headline
# metrics, compile counts — byte-identical once the wall-clock fields
# are stripped. The cell hashes are also what ties each concurrent run
# to its standalone counterpart (cmd/manasim's sweep tests pin that).
smoke-sweep:
	$(GO) build -o /tmp/manasim-sweep ./cmd/manasim
	/tmp/manasim-sweep -sweep -steps 8 -sweep-specs default,overlap \
	  -sweep-ranks 4,8 -sweep-ckpt 1ms -sweep-virtid sharded,mutex \
	  -sweep-incremental false,true -sweep-workers 4 > /tmp/manasim-sweep1.json
	/tmp/manasim-sweep -sweep -steps 8 -sweep-specs default,overlap \
	  -sweep-ranks 4,8 -sweep-ckpt 1ms -sweep-virtid sharded,mutex \
	  -sweep-incremental false,true -sweep-workers 1 > /tmp/manasim-sweep2.json
	python3 -c 'import json,sys; \
	strip=lambda d: {"cells":[{k:v for k,v in c.items() if k!="wall_ms"} for c in d["cells"]], \
	"totals":{k:v for k,v in d["totals"].items() if k not in ("wall_ms","runs_per_sec","pool_workers")}}; \
	a=strip(json.load(open("/tmp/manasim-sweep1.json"))); b=strip(json.load(open("/tmp/manasim-sweep2.json"))); \
	sys.exit(0 if a==b else sys.stderr.write("sweep aggregates diverge across pool widths\n") or 1)'
