# Local targets mirror .github/workflows/ci.yml step for step, so "it
# passes locally" and "it passes in CI" mean the same thing.

GO ?= go

.PHONY: all build test race identity reach fuzz-smoke cuts hypotheses lint fmt bench microbench bench-smoke pairs run smoke smoke-wide smoke-matrix smoke-sweep smoke-faults

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
# entries for a name counts functions of that name in the file. The
# coverage profile goes to a directory of this invocation's own, removed
# on exit, unless REACH_PROFILE names a file to keep it in.
REACH_PROFILE ?=
REACH_LIST = cmd/manasim/testdata/unreached.txt
reach:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	profile="$(REACH_PROFILE)"; [ -n "$$profile" ] || profile="$$tmp/reach.out"; \
	$(GO) test -count=1 ./cmd/manasim -run '^TestIdentityCorpus$$' -coverpkg=./internal/... -coverprofile="$$profile"; \
	$(GO) tool cover -func="$$profile" | awk ' \
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
# the netsim pair rings against a map of FIFO queues keyed by the test's
# own (sender, receiver) pair, the ops ranks resolve from shared compiled
# streams against the per-rank materialising compiler, the radix event
# queue on Push-only streams against a sort that orders ties by its own
# push count (its committed corpus replays a
# late-push rebase under plain `go test`), and the handle table against a
# map. The parser targets: the scenario spec,
# fault plan and storage document parsers on arbitrary bytes (a value or
# an error, never a panic; what they accept compiles, and a spec
# round-trips through json.Marshal). -fuzz takes one target in one
# package per run.
# -fuzzminimizetime 1x: minimising every coverage-expanding input is on
# by default with a 60 s budget and stalls a 10 s run after its first
# find (Go's minimiser tries on the order of n^2 candidates for an n-byte
# input, and FuzzSparseVsFlat takes milliseconds per run); a failing
# input is still reported and saved under testdata/fuzz.
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

# hypotheses runs every entry of the hypothesis ledger
# (hypotheses/<family>/<id>/run.sh, ROADMAP item 7). Each script builds
# manasim once, prints its table and exits non-zero when a precondition
# its FINDINGS.md names fails; the first failing script stops the target.
hypotheses:
	@set -e; for s in hypotheses/*/*/run.sh; do echo "hypotheses: $$s"; sh "$$s"; done

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

# pairs measures a change the way a benchmark gate judges it: PAIRS
# pairs of `go run ./bench --workload WORKLOAD --seconds SECONDS --seed
# SEED`, the BASE ref against the working tree (its uncommitted and
# untracked files included), each pair run in the other order from the
# one before. It prints each metric's median on both sides, the change
# in per cent, the pairs the working tree won and the distance between
# the base runs' quartiles, with each side's report_fnv64. Both sides
# run from `git worktree` checkouts in a directory of this invocation's
# own (mktemp -d), removed on exit, so both build from a fresh checkout
# and setup_s compares like with like. CI does not run it.
BASE ?= HEAD
WORKLOAD ?= deep-stencil
PAIRS ?= 10
SECONDS ?= 15
SEED ?= 42
PAIRS_SUMMARY = python3 -c 'import json, os, re, statistics, sys; \
	tmp, n = sys.argv[1], int(sys.argv[2]); \
	runs = {s: [open(os.path.join(tmp, "%s.%d.out" % (s, i))).read() for i in range(1, n + 1)] for s in ("base", "new")}; \
	res = {s: [json.loads([l for l in o.splitlines() if l.startswith("{")][-1]) for o in runs[s]] for s in runs}; \
	fnv = {s: sorted(set(re.findall(r"report_fnv64=(\w+)", "".join(runs[s])))) for s in runs}; \
	print("pairs: %d of %s; report_fnv64 base %s, new %s" % (n, sys.argv[3], ",".join(fnv["base"]), ",".join(fnv["new"]))); \
	print("  %-18s %14s %14s %9s %6s %14s" % ("metric", "base", "new", "change", "wins", "base IQR")); \
	names = sorted(res["base"][0]["metrics"]); \
	val = lambda s, m: [r["metrics"][m]["value"] for r in res[s]]; \
	higher = lambda m: m.endswith("_per_s"); \
	iqr = lambda v: statistics.quantiles(v, n=4)[2] - statistics.quantiles(v, n=4)[0] if len(v) > 1 else 0; \
	rows = [(m, statistics.median(val("base", m)), statistics.median(val("new", m)), \
		sum((b < w) if higher(m) else (w < b) for b, w in zip(val("base", m), val("new", m))), iqr(val("base", m))) for m in names]; \
	[print("  %-18s %14.6g %14.6g %+8.1f%% %3d/%d %14.6g" % (m, b, w, 100 * (w - b) / b if b else 0, k, n, q)) for m, b, w, k, q in rows]; \
	print("  failed: base %d, new %d" % (sum(r["failed"] for r in res["base"]), sum(r["failed"] for r in res["new"])))'
pairs:
	@set -e; tmp=$$(mktemp -d); \
	trap 'git worktree remove --force "$$tmp/base" 2>/dev/null; git worktree remove --force "$$tmp/new" 2>/dev/null; git worktree prune; rm -rf "$$tmp"' EXIT; \
	git worktree add --quiet --detach "$$tmp/base" "$(BASE)"; \
	git worktree add --quiet --detach "$$tmp/new" HEAD; \
	git diff --quiet HEAD || git diff --binary HEAD | git -C "$$tmp/new" apply; \
	git ls-files --others --exclude-standard -z | xargs -0 -r cp --parents -t "$$tmp/new"; \
	for i in $$(seq 1 $(PAIRS)); do \
	  order="base new"; [ $$((i % 2)) -eq 1 ] || order="new base"; \
	  for side in $$order; do \
	    (cd "$$tmp/$$side" && $(GO) run ./bench --workload $(WORKLOAD) --seconds $(SECONDS) --seed $(SEED)) > "$$tmp/$$side.$$i.out" 2>&1; \
	  done; \
	  echo "pairs: pair $$i of $(PAIRS) done"; \
	done; \
	$(PAIRS_SUMMARY) "$$tmp" $(PAIRS) "$(WORKLOAD) seed $(SEED) base $(BASE)"

run:
	$(GO) run ./cmd/manasim

# smoke mirrors CI's basic determinism check: the default failure/restart
# scenario executed twice and compared byte for byte.
smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/manasim > "$$tmp/run1.txt"; \
	$(GO) run ./cmd/manasim > "$$tmp/run2.txt"; \
	cmp "$$tmp/run1.txt" "$$tmp/run2.txt"

# Each smoke target below keeps its binaries and outputs in a directory
# of its own invocation (mktemp -d), removed on exit, so two checkouts can
# run the same target at once.

# smoke-wide is CI's memory-smoke step: five smokes, each run printing
# its peak RSS (ru_maxrss of the child, in KiB on Linux), wall and system
# time, and holding the RSS strictly under a ceiling. Wide: 65536 ranks that each write
# 150 bytes, twice, byte-identical, under 120 MiB — memory must follow the
# bytes a run writes, not its address space or its page size (648 MiB
# with a 4 KiB page and a private memory map per rank; 107 MiB when every
# rank copied the twelve region entries of the shared map, 80 MiB since
# a rank reads the job's region table until it changes its map). Very
# wide: 262144 ranks, once, under 450 MiB (2.8 GiB and 40 s before page
# buffers followed the written prefix; 427 MiB with per-rank region
# entries, 296 MiB since). Million: 1048576 ranks, once, under 1536
# MiB — the scale production MANA reports reaching its limits at, in
# seconds (54 s at 2,333 MiB before ranks shared their program, layout
# and heap descriptors; 14.6 s at 1,067 MiB with the send/receive counts
# in the network, 15.4-15.9 s at 1,138-1,140 MiB with them in the ranks,
# on a 2-CPU host). Deep: the
# benchmark's deep-stencil workload (512 ranks, 800 steps, 2.2 M ops),
# twice, byte-identical, under 14 MiB — memory must follow the spec, not
# one private copy of the op stream per rank (217 MiB), a finished job
# is fingerprinted without writing the state markers its ranks owe
# (35 MiB when it wrote them; 20 MiB after), ranks that grow their
# heaps alike share one descriptor per sbrk (20 MiB with one per rank
# per sbrk; 15 MiB after), and each rank's region table is sized once
# for the sbrks its program makes (15 MiB when it grew by doubling;
# 10 MiB since). Checkpoint: the
# benchmark's ckpt-storm invocation (2048 ranks, 48 back-to-back commits,
# the default phases with ckpt-storm's triggers in
# cmd/manasim/testdata/identity/ckpt-storm.json), twice, byte-identical,
# under 37 MiB — an image record must point at the shared memory,
# handle-table and stats snapshots, not embed copies of them (39 MiB
# when it embedded them; 26-32 MiB since). The system time is the
# kernel faulting pages in: the term that grows faster than the rank
# count when per-rank memory does.
# RSS_RUN takes: output file, label, ceiling in MiB, binary, manasim
# arguments. cmd/peakrss execs the binary and reads the child's own
# ru_maxrss from wait4: a python3 parent's getrusage(RUSAGE_CHILDREN)
# read 13.6 MiB for /bin/true, its own high-water mark carried across
# fork and exec, so the deep run's 14 MiB ceiling checked that floor.
RSS_RUN = "$$tmp/peakrss"
smoke-wide:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/manasim" ./cmd/manasim; \
	$(GO) build -o "$$tmp/peakrss" ./cmd/peakrss; \
	for i in 1 2; do \
	  $(RSS_RUN) "$$tmp/wide$$i.txt" "smoke-wide: wide run $$i" 120 "$$tmp/manasim" -ranks 65536 -steps 5 -no-fail; \
	done; \
	cmp "$$tmp/wide1.txt" "$$tmp/wide2.txt"; \
	$(RSS_RUN) /dev/null "smoke-wide: very wide run" 450 "$$tmp/manasim" -ranks 262144 -steps 5 -no-fail; \
	$(RSS_RUN) /dev/null "smoke-wide: million-rank run" 1536 "$$tmp/manasim" -ranks 1048576 -steps 5 -no-fail; \
	for i in 1 2; do \
	  $(RSS_RUN) "$$tmp/deep$$i.txt" "smoke-wide: deep run $$i" 14 "$$tmp/manasim" -spec stencil -ranks 512 -steps 800 -no-fail; \
	done; \
	cmp "$$tmp/deep1.txt" "$$tmp/deep2.txt"; \
	for i in 1 2; do \
	  $(RSS_RUN) "$$tmp/ckpt$$i.txt" "smoke-wide: checkpoint run $$i" 37 "$$tmp/manasim" -spec cmd/manasim/testdata/identity/ckpt-storm.json \
	    -ranks 2048 -steps 40 -ckpt-at 1us -incremental -full-every 4 -storage staged-compressed -no-fail; \
	done; \
	cmp "$$tmp/ckpt1.txt" "$$tmp/ckpt2.txt"

# smoke-matrix mirrors CI's determinism matrix: every combination of
# handle-table implementation, image mode and library scenario spec runs
# twice at 512 ranks and must print byte-identical reports.
smoke-matrix:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/manasim" ./cmd/manasim; \
	for virtid in mutex sharded; do \
	  for inc in "" "-incremental"; do \
	    for spec in default overlap stencil master-worker bursty-alltoall pipeline; do \
	      echo "smoke-matrix: -virtid $$virtid $$inc -spec $$spec"; \
	      "$$tmp/manasim" -virtid $$virtid $$inc -spec $$spec \
	        -ranks 512 -steps 5 -ckpt-at 200us -no-fail > "$$tmp/out1.txt"; \
	      "$$tmp/manasim" -virtid $$virtid $$inc -spec $$spec \
	        -ranks 512 -steps 5 -ckpt-at 200us -no-fail > "$$tmp/out2.txt"; \
	      cmp "$$tmp/out1.txt" "$$tmp/out2.txt"; \
	    done; \
	  done; \
	done; \
	for st in direct staged staged-compressed; do \
	  inc=""; if [ $$st = staged-compressed ]; then inc="-incremental"; fi; \
	  echo "smoke-matrix: storage -storage $$st $$inc"; \
	  "$$tmp/manasim" -storage $$st $$inc \
	    -ranks 512 -steps 5 -ckpt-at 200us -no-fail > "$$tmp/out1.txt"; \
	  "$$tmp/manasim" -storage $$st $$inc \
	    -ranks 512 -steps 5 -ckpt-at 200us -no-fail > "$$tmp/out2.txt"; \
	  cmp "$$tmp/out1.txt" "$$tmp/out2.txt"; \
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
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/manasim" ./cmd/manasim; \
	for plan in cmd/manasim/testdata/faults/*.json; do \
	  echo "smoke-faults: $$plan"; \
	  "$$tmp/manasim" -faults $$plan > "$$tmp/out1.txt"; \
	  "$$tmp/manasim" -faults $$plan > "$$tmp/out2.txt"; \
	  cmp "$$tmp/out1.txt" "$$tmp/out2.txt"; \
	  "$$tmp/manasim" -faults $$plan -incremental -full-every 2 > "$$tmp/out4.txt"; \
	  "$$tmp/manasim" -faults $$plan -incremental -full-every 2 > "$$tmp/out5.txt"; \
	  cmp "$$tmp/out4.txt" "$$tmp/out5.txt"; \
	done; \
	for plan in cmd/manasim/testdata/faults/staging/*.json; do \
	  echo "smoke-faults: $$plan (staged)"; \
	  "$$tmp/manasim" -incremental -faults $$plan \
	    -storage cmd/manasim/testdata/storage/fast-staged.json > "$$tmp/out1.txt"; \
	  "$$tmp/manasim" -incremental -faults $$plan \
	    -storage cmd/manasim/testdata/storage/fast-staged.json > "$$tmp/out2.txt"; \
	  cmp "$$tmp/out1.txt" "$$tmp/out2.txt"; \
	done

# smoke-sweep mirrors CI's fleet determinism check: a small -sweep grid
# run twice, with the aggregates — cell hashes, byte counts, headline
# metrics, compile counts — byte-identical once the wall-clock fields
# are stripped. The cell hashes are also what ties each concurrent run
# to its standalone counterpart (cmd/manasim's sweep tests pin that).
smoke-sweep:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/manasim" ./cmd/manasim; \
	"$$tmp/manasim" -sweep -steps 8 -sweep-specs default,overlap \
	  -sweep-ranks 4,8 -sweep-ckpt 1ms -sweep-virtid sharded,mutex \
	  -sweep-incremental false,true -sweep-workers 4 > "$$tmp/sweep1.json"; \
	"$$tmp/manasim" -sweep -steps 8 -sweep-specs default,overlap \
	  -sweep-ranks 4,8 -sweep-ckpt 1ms -sweep-virtid sharded,mutex \
	  -sweep-incremental false,true -sweep-workers 1 > "$$tmp/sweep2.json"; \
	python3 -c 'import json,sys; \
	strip=lambda d: {"cells":[{k:v for k,v in c.items() if k!="wall_ms"} for c in d["cells"]], \
	"totals":{k:v for k,v in d["totals"].items() if k not in ("wall_ms","runs_per_sec","pool_workers")}}; \
	a=strip(json.load(open(sys.argv[1]))); b=strip(json.load(open(sys.argv[2]))); \
	sys.exit(0 if a==b else sys.stderr.write("sweep aggregates diverge across pool widths\n") or 1)' \
	  "$$tmp/sweep1.json" "$$tmp/sweep2.json"
