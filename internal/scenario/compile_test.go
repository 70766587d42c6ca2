package scenario

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// TestCompileIndependentOfGOMAXPROCS is the compile half of the
// determinism property test: the op streams a spec compiles to do not
// depend on the parallelism of the process doing the compiling.
func TestCompileIndependentOfGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	results := make([][]Program, 0, 2)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		var runs [][]Program
		for i := 0; i < 2; i++ {
			runs = append(runs, MustPrograms("bursty-alltoall", Params{Ranks: 24, Steps: 9, Seed: 77}))
		}
		if !reflect.DeepEqual(runs[0], runs[1]) {
			t.Fatalf("GOMAXPROCS=%d: two compilations differ", procs)
		}
		results = append(results, runs[0])
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatal("compiled programs differ between GOMAXPROCS=1 and GOMAXPROCS=4")
	}
}

// TestSeedChangesJitterOnly: a different seed must change compute
// durations (the jittered part) but not the op structure.
func TestSeedChangesJitterOnly(t *testing.T) {
	a := MustPrograms("default", Params{Ranks: 4, Steps: 12, Seed: 1})
	b := MustPrograms("default", Params{Ranks: 4, Steps: 12, Seed: 2})
	differed := false
	for id := range a {
		if len(a[id]) != len(b[id]) {
			t.Fatalf("rank %d: seed changed program length %d -> %d", id, len(a[id]), len(b[id]))
		}
		for i := range a[id] {
			x, y := a[id][i].Resolve(id), b[id][i].Resolve(id)
			if x.Kind != y.Kind || x.Peer != y.Peer || x.Tag != y.Tag || x.Comm != y.Comm || x.Color != y.Color {
				t.Fatalf("rank %d op %d: seed changed structure: %+v vs %+v", id, i, x, y)
			}
			if x.Dur != y.Dur {
				differed = true
			}
		}
	}
	if !differed {
		t.Error("changing the seed changed no compute duration")
	}
}

// TestOverlapCompiledShape re-pins the shape the deleted overlap
// generator test asserted, now against the compiled spec: two world
// splits with staggered colours up front, then per step an allreduce on
// slot 1 followed by a barrier on slot 2.
func TestOverlapCompiledShape(t *testing.T) {
	const ranks, steps, group = 12, 6, 4
	progs := MustPrograms("overlap", Params{Ranks: ranks, Steps: steps, Seed: 3})
	for id, prog := range progs {
		if prog[0].Kind != OpCommSplit || prog[1].Kind != OpCommSplit {
			t.Fatalf("rank %d: program does not open with two comm-splits", id)
		}
		if got := prog[0].Resolve(id).Color; got != id/group {
			t.Errorf("rank %d: first split colour %d, want %d", id, got, id/group)
		}
		if got := prog[1].Resolve(id).Color; got != (id+group/2)/group {
			t.Errorf("rank %d: second split colour %d, want %d", id, got, (id+group/2)/group)
		}
		var allreduces, barriers int
		lastAllreduce := -1
		for i, op := range prog {
			switch op.Kind {
			case OpAllreduce:
				if op.Comm != 1 {
					t.Errorf("rank %d: allreduce on comm %d, want slot 1", id, op.Comm)
				}
				allreduces++
				lastAllreduce = i
			case OpBarrier:
				if op.Comm != 2 {
					t.Errorf("rank %d: barrier on comm %d, want slot 2", id, op.Comm)
				}
				if lastAllreduce < 0 || lastAllreduce > i {
					t.Errorf("rank %d: barrier at %d not preceded by its step's allreduce", id, i)
				}
				barriers++
			}
		}
		if allreduces != steps || barriers != steps {
			t.Errorf("rank %d: %d allreduces / %d barriers, want %d each", id, allreduces, barriers, steps)
		}
	}
}

// TestDefaultCompiledSPMDCollectives re-pins the deleted generator test:
// all ranks of the default spec share one world collective sequence, and
// the exchange structure matches the documented cadence.
func TestDefaultCompiledSPMDCollectives(t *testing.T) {
	const ranks, steps = 5, 21
	progs := MustPrograms("default", Params{Ranks: ranks, Steps: steps, Seed: 11})
	var ref []OpKind
	for id, prog := range progs {
		var colls []OpKind
		isends, sends := 0, 0
		for _, op := range prog {
			switch op.Kind {
			case OpAllreduce, OpBarrier:
				colls = append(colls, op.Kind)
			case OpIsend:
				isends++
			case OpSend:
				sends++
			}
		}
		if wantIsend := steps / 4; isends != wantIsend {
			t.Errorf("rank %d: %d isends, want %d (every fourth step)", id, isends, wantIsend)
		}
		if wantSend := steps - steps/4; sends != wantSend {
			t.Errorf("rank %d: %d sends, want %d", id, sends, wantSend)
		}
		if id == 0 {
			ref = colls
			continue
		}
		if !reflect.DeepEqual(colls, ref) {
			t.Errorf("rank %d: collective sequence diverges from rank 0", id)
		}
	}
	if len(ref) != steps/3+steps/5 {
		t.Errorf("collective count = %d, want %d allreduces + %d barriers", len(ref), steps/3, steps/5)
	}
}

// TestPerRank pins the programmatic escape hatch used across the
// coordinator tests.
func TestPerRank(t *testing.T) {
	progs := PerRank(3, func(id int) []Op {
		return []Op{{Kind: OpCompute, Dur: 1}, {Kind: OpSend, Peer: id}}
	})
	if len(progs) != 3 {
		t.Fatalf("PerRank built %d programs, want 3", len(progs))
	}
	for id, prog := range progs {
		if len(prog) != 2 || prog[1].Peer != id {
			t.Errorf("rank %d program = %+v", id, prog)
		}
	}
}

// TestMultiPhaseSpecs: phases run in order, a pinned phase length is
// honoured, and the global step counter (used for message tags) runs on
// across phases.
func TestMultiPhaseSpecs(t *testing.T) {
	src := `{
		"name": "phased",
		"phases": [
			{"name": "warmup", "steps": 2, "ops": [{"op": "compute", "mean": "1ms"}]},
			{"name": "main", "ops": [{"op": "ring", "bytes": 64}]}
		]
	}`
	spec, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	progs, err := spec.Compile(Params{Ranks: 2, Steps: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	prog := progs[0]
	// 2 warmup computes, then 3 ring exchanges (send+recv each).
	if len(prog) != 2+3*2 {
		t.Fatalf("program length %d, want 8: %+v", len(prog), prog)
	}
	if prog[0].Kind != OpCompute || prog[1].Kind != OpCompute {
		t.Fatal("warmup phase did not run first")
	}
	// Tags continue from the global step counter: first ring step is step 2.
	if prog[2].Kind != OpSend || prog[2].Tag != 2 {
		t.Errorf("first exchange op = %+v, want a send tagged with global step 2", prog[2])
	}
	if last := prog[len(prog)-1]; last.Tag != 4 {
		t.Errorf("last exchange tag = %d, want 4", last.Tag)
	}
}

// TestCompileSizesProgramsExactly: every library spec, at rank counts on
// both sides of the ranks<2 special cases and with root and non-root
// ranks, compiles each stream into a slice allocated once at its final
// length (emit counts with the same walk that fills).
func TestCompileSizesProgramsExactly(t *testing.T) {
	for _, name := range Names() {
		for _, ranks := range []int{1, 2, 9} {
			progs := MustPrograms(name, Params{Ranks: ranks, Steps: 7, Seed: 3})
			for id, prog := range progs {
				if len(prog) != cap(prog) {
					t.Errorf("%s ranks=%d rank %d: len %d, cap %d — the stream was grown, not sized",
						name, ranks, id, len(prog), cap(prog))
				}
			}
		}
	}
}

// compileBytes returns the heap bytes one compilation allocates.
func compileBytes(t *testing.T, name string, p Params) uint64 {
	t.Helper()
	spec, err := Load(name)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	progs, err := spec.Compile(p)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(progs)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCompileMemoryFollowsSpecNotRanks pins what sharing buys. On an
// SPMD spec the op stream is the same size at any rank count, so 4032
// more ranks cost 4032 more slice headers and nothing else (a page of
// slack covers the allocator rounding the header array up). And an
// all-to-all's 2·(ranks-1) ops per burst are held once, not once per
// rank: two bursts at 4096 ranks compile into a couple of MiB where
// materialising them took 4096 × 16,391 ops × 56 B = 3.7 GB.
func TestCompileMemoryFollowsSpecNotRanks(t *testing.T) {
	const header = uint64(unsafe.Sizeof(Program(nil)))
	small := compileBytes(t, "stencil", Params{Ranks: 64, Steps: 200, Seed: 1})
	large := compileBytes(t, "stencil", Params{Ranks: 4096, Steps: 200, Seed: 1})
	if limit := small + (4096-64)*header + 8192; large > limit {
		t.Errorf("stencil: compiling 4096 ranks allocated %d B, 64 ranks %d B; want at most a %d-byte slice header per extra rank (%d B)",
			large, small, header, limit)
	}
	if got := compileBytes(t, "bursty-alltoall", Params{Ranks: 4096, Steps: 8, Seed: 1}); got > 8<<20 {
		t.Errorf("bursty-alltoall at 4096 ranks: compile allocated %d B, want under 8 MiB", got)
	}
}
