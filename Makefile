# Local targets mirror .github/workflows/ci.yml step for step, so "it
# passes locally" and "it passes in CI" mean the same thing.

GO ?= go

.PHONY: all build test race identity reach fuzz-smoke cuts lint fmt bench microbench bench-smoke run smoke smoke-wide smoke-matrix smoke-sweep smoke-faults

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

# reach replays the identity corpus (every row, in-process) with
# coverage of internal/ and checks what no row reaches (0.0 % of a
# function's statements) against cmd/manasim/testdata/unreached.txt,
# which names each such function with its reason. It fails when a
# function is unreached and not listed, when a listed function is
# reached, and when a listed function no longer exists; a count of
# entries for a name counts functions of that name in the file.
REACH_PROFILE ?= /tmp/manasim-reach.out
REACH_LIST = cmd/manasim/testdata/unreached.txt
reach:
	$(GO) test -count=1 ./cmd/manasim -run '^TestIdentityCorpus$$' -coverpkg=./internal/... -coverprofile=$(REACH_PROFILE)
	@$(GO) tool cover -func=$(REACH_PROFILE) | awk ' \
		FNR == NR { if ($$0 !~ /^#/ && NF > 0) listed[$$1 " " $$2]++; next } \
		$$1 == "total:" { total = $$NF; next } \
		{ split($$1, at, ":"); sub(/^mana\//, "", at[1]); key = at[1] " " $$2; all[key]++; if ($$NF == "0.0%") { unreached[key]++; n++ } } \
		END { \
			for (k in unreached) if (unreached[k] > listed[k]) { print "reach: unreached and not listed: " k; bad = 1 } \
			for (k in listed) if (listed[k] > unreached[k]) { \
				if (listed[k] > all[k]) print "reach: listed but no longer exists: " k; \
				else print "reach: listed but reached: " k; \
				bad = 1 \
			} \
			if (bad) exit 1; \
			print "reach: " total " of internal/ statements reached; the " n " unreached functions are listed" \
		}' $(REACH_LIST) -

# fuzz-smoke runs each fuzz target as a fuzzer (plain `go test` only
# replays their seed corpus). The differential oracles: the sparse page store
# against a flat []byte model (its committed corpus replays back-to-back
# commits of an unchanged space, which share the first commit's region
# storage, under plain `go test`), the zero-run FNV kernel against hash/fnv,
# the dense netsim pair tables against a map[Pair] model, the ops ranks
# resolve from shared compiled streams against the per-rank materialising
# compiler, the radix event queue on Push-only streams against a sort that
# orders ties by its own push count (its committed corpus replays a
# late-push rebase under plain `go test`), and the handle table against a
# map. The parser targets: the scenario spec,
# fault plan and storage document parsers on arbitrary bytes (a value or
# an error, never a panic; what they accept compiles, and a spec
# round-trips through json.Marshal). -fuzz takes one target in one
# package per run.
# -fuzzminimizetime 1x: minimising every coverage-expanding input is on
# by default with a 60 s budget and stalls a 10 s run after its first
# find; a failing input is still reported and saved under testdata/fuzz.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzSparseVsFlat$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/memsim
	$(GO) test -run='^$$' -fuzz='^FuzzFNVKernel$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/fnv1a
	$(GO) test -run='^$$' -fuzz='^FuzzNetsimVsMap$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/netsim
	$(GO) test -run='^$$' -fuzz='^FuzzCompileVsMaterialised$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/scenario
	$(GO) test -run='^$$' -fuzz='^FuzzQueueVsSort$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/vtime
	$(GO) test -run='^$$' -fuzz='^FuzzTableVsMap$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/virtid
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/scenario
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/faultplan
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/storage

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
# byte-identical stdout, fault-free fingerprint after recovery, a
# second traced pass reproduces the first, sweep pools agree — not for
# its numbers.
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

# smoke-wide mirrors CI's four memory smokes; each run prints its peak
# RSS (ru_maxrss of the child, in KiB on Linux), wall and system time,
# and holds the RSS under a ceiling. Wide: 65536 ranks that each write
# 150 bytes, twice, byte-identical, under 450 MiB — memory must follow the
# bytes a run writes, not its address space or its page size (648 MiB
# with a 4 KiB page and a private memory map per rank). Very wide: 262144
# ranks, once, under 2 GiB (2.8 GiB and 40 s before). Deep: the
# benchmark's deep-stencil workload (512 ranks, 800 steps, 2.2 M ops),
# twice, byte-identical, under 26 MiB — memory must follow the spec, not
# one private copy of the op stream per rank (217 MiB), and a finished
# job is fingerprinted without writing the state markers its ranks owe
# (35 MiB when it wrote them; 20 MiB since). Checkpoint: the
# benchmark's ckpt-storm invocation (2048 ranks, 48 back-to-back commits,
# the default phases with ckpt-storm's triggers in
# cmd/manasim/testdata/identity/ckpt-storm.json), twice, byte-identical,
# under 37 MiB — an image record must point at the shared memory,
# handle-table and stats snapshots, not embed copies of them (39 MiB
# when it embedded them; 28-32 MiB since). The system time is the
# kernel faulting pages in: the term that grows faster than the rank
# count when per-rank memory does.
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
	  $(RSS_RUN) /tmp/manasim-deep$$i.txt "deep run $$i" 26 -spec stencil -ranks 512 -steps 800 -no-fail; \
	done
	cmp /tmp/manasim-deep1.txt /tmp/manasim-deep2.txt
	@set -e; for i in 1 2; do \
	  $(RSS_RUN) /tmp/manasim-ckpt$$i.txt "checkpoint run $$i" 37 -spec cmd/manasim/testdata/identity/ckpt-storm.json \
	    -ranks 2048 -steps 40 -ckpt-at 1us -incremental -full-every 4 -storage staged-compressed -no-fail; \
	done
	cmp /tmp/manasim-ckpt1.txt /tmp/manasim-ckpt2.txt

# smoke-matrix mirrors CI's determinism matrix: every combination of
# handle-table implementation, image mode and library scenario spec runs
# twice at 512 ranks and must print byte-identical reports.
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
	done

# smoke-faults mirrors CI's fault-matrix job: every canned fault plan
# under cmd/manasim/testdata/faults/ — single and multi-failure, torn
# and corrupt images, restart-time double faults — runs twice and must
# print byte-identical output, in two modes: full images and incremental
# images (-incremental -full-every 2). The staging/ plans then run
# against the fast-staged storage document: a crash mid-drain must fall
# back to the newest durable generation and a torn drain must surface at
# restart, byte-identically.
smoke-faults:
	$(GO) build -o /tmp/manasim-faults ./cmd/manasim
	@set -e; \
	for plan in cmd/manasim/testdata/faults/*.json; do \
	  echo "smoke-faults: $$plan"; \
	  /tmp/manasim-faults -faults $$plan > /tmp/manasim-faults1.txt; \
	  /tmp/manasim-faults -faults $$plan > /tmp/manasim-faults2.txt; \
	  cmp /tmp/manasim-faults1.txt /tmp/manasim-faults2.txt; \
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
