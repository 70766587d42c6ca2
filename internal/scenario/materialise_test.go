package scenario

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"mana/internal/vtime"
)

// This file keeps the compiler Compile replaced — one private,
// fully materialised op stream per rank, jitter drawn sequentially — as
// the oracle for the one that replaced it: compileRank, opCount,
// emitCount and payload below are verbatim from compile.go as of the
// last commit that shipped them. Every op a rank resolves from a shared
// stream must equal, field for field, what compileRank stored for that
// rank at that position.

func (s *Spec) compileRank(id int, p Params) Program {
	rng := vtime.NewRNG(p.Seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15)
	right := (id + 1) % p.Ranks
	left := (id - 1 + p.Ranks) % p.Ranks

	prog := make(Program, 0, s.opCount(id, p))
	for _, sp := range s.Splits {
		g := sp.Group
		if p.Group > 0 {
			g = p.Group
		}
		if g > p.Ranks {
			g = p.Ranks
		}
		shift := sp.Shift
		if sp.ShiftHalfGroup {
			shift = g / 2
		}
		prog = append(prog, Op{Kind: OpCommSplit, Comm: 0, Color: (id + shift) / g})
	}

	step := 0
	for _, ph := range s.Phases {
		steps := ph.Steps
		if steps == 0 {
			steps = p.Steps
		}
		for ps := 0; ps < steps; ps++ {
			for i := range ph.Ops {
				op := &ph.Ops[i]
				if !op.When.match(ps) {
					continue
				}
				if !op.emitFor(id) {
					continue
				}
				switch op.Op {
				case "compute":
					scale := op.Scale
					if scale == 0 {
						scale = 1
					}
					dur := vtime.Duration(float64(op.mean) * rng.Jitter(op.Jitter) * scale)
					prog = append(prog, Op{Kind: OpCompute, Dur: dur})
				case "ring":
					if p.Ranks < 2 {
						continue
					}
					to, from := right, left
					if op.Dir == "left" {
						to, from = left, right
					}
					if op.Mode == "isend" {
						prog = append(prog,
							Op{Kind: OpIsend, Peer: to, Bytes: op.payload(rng), Tag: step},
							Op{Kind: OpRecv, Peer: from, Tag: step},
							Op{Kind: OpWait},
						)
					} else {
						prog = append(prog,
							Op{Kind: OpSend, Peer: to, Bytes: op.payload(rng), Tag: step},
							Op{Kind: OpRecv, Peer: from, Tag: step},
						)
					}
				case "alltoall":
					if p.Ranks < 2 {
						continue
					}
					for k := 1; k < p.Ranks; k++ {
						prog = append(prog, Op{Kind: OpSend, Peer: (id + k) % p.Ranks, Bytes: op.payload(rng), Tag: step})
					}
					for k := 1; k < p.Ranks; k++ {
						prog = append(prog, Op{Kind: OpRecv, Peer: (id + k) % p.Ranks, Tag: step})
					}
				case "scatter":
					if p.Ranks < 2 {
						continue
					}
					if id == op.Root {
						for peer := 0; peer < p.Ranks; peer++ {
							if peer == op.Root {
								continue
							}
							prog = append(prog, Op{Kind: OpSend, Peer: peer, Bytes: op.payload(rng), Tag: step})
						}
					} else {
						prog = append(prog, Op{Kind: OpRecv, Peer: op.Root, Tag: step})
					}
				case "gather":
					if p.Ranks < 2 {
						continue
					}
					if id == op.Root {
						for peer := 0; peer < p.Ranks; peer++ {
							if peer == op.Root {
								continue
							}
							prog = append(prog, Op{Kind: OpRecv, Peer: peer, Tag: step})
						}
					} else {
						prog = append(prog, Op{Kind: OpSend, Peer: op.Root, Bytes: op.payload(rng), Tag: step})
					}
				case "pipeline":
					if p.Ranks < 2 {
						continue
					}
					if id > 0 {
						prog = append(prog, Op{Kind: OpRecv, Peer: id - 1, Tag: step})
					}
					if id < p.Ranks-1 {
						prog = append(prog, Op{Kind: OpSend, Peer: id + 1, Bytes: op.payload(rng), Tag: step})
					}
				case "allreduce":
					prog = append(prog, Op{Kind: OpAllreduce, Comm: op.Comm, Bytes: op.Bytes})
				case "barrier":
					prog = append(prog, Op{Kind: OpBarrier, Comm: op.Comm})
				case "sbrk":
					prog = append(prog, Op{Kind: OpSbrk, Bytes: op.Bytes})
				}
			}
			step++
		}
	}
	return prog
}

// opCount is a dry pass over compileRank's loops: the exact number of
// ops rank id's program will hold, so the program is allocated once at
// its final size instead of grown by append (jitter only shapes op
// fields, never how many ops are emitted, so no RNG is needed here).
func (s *Spec) opCount(id int, p Params) int {
	n := len(s.Splits)
	for _, ph := range s.Phases {
		steps := ph.Steps
		if steps == 0 {
			steps = p.Steps
		}
		for ps := 0; ps < steps; ps++ {
			for i := range ph.Ops {
				if op := &ph.Ops[i]; op.When.match(ps) && op.emitFor(id) {
					n += op.emitCount(id, p.Ranks)
				}
			}
		}
	}
	return n
}

// emitCount is how many ops one firing of the op appends to rank id's
// program; it mirrors the switch in compileRank case by case.
func (op *OpSpec) emitCount(id, ranks int) int {
	switch op.Op {
	case "compute", "allreduce", "barrier", "sbrk":
		return 1
	}
	if ranks < 2 {
		return 0
	}
	switch op.Op {
	case "ring":
		if op.Mode == "isend" {
			return 3
		}
		return 2
	case "alltoall":
		return 2 * (ranks - 1)
	case "scatter", "gather":
		if id == op.Root {
			return ranks - 1
		}
		return 1
	case "pipeline":
		n := 0
		if id > 0 {
			n++
		}
		if id < ranks-1 {
			n++
		}
		return n
	}
	return 0
}

// payload is the op's point-to-point message size, with one deterministic
// jitter draw per emitted message when bytes_jitter is set.
func (op *OpSpec) payload(rng *vtime.RNG) uint64 {
	if op.BytesJitter <= 0 {
		return op.Bytes
	}
	return uint64(float64(op.Bytes) * rng.Jitter(op.BytesJitter))
}

// materialise is Compile as it was: one compileRank per rank.
func (s *Spec) materialise(p Params) []Program {
	progs := make([]Program, p.Ranks)
	for id := range progs {
		progs[id] = s.compileRank(id, p)
	}
	return progs
}

// diffAgainstOracle compiles the spec both ways and reports the first
// resolved op that differs from the materialised one.
func diffAgainstOracle(t testing.TB, spec *Spec, p Params) {
	t.Helper()
	progs, err := spec.Compile(p)
	if err != nil {
		t.Fatalf("%s %+v: %v", spec.Name, p, err)
	}
	want := spec.materialise(p)
	if len(progs) != len(want) {
		t.Fatalf("%s %+v: %d programs, oracle has %d", spec.Name, p, len(progs), len(want))
	}
	for id := range want {
		if len(progs[id]) != len(want[id]) {
			t.Fatalf("%s %+v rank %d: %d ops, oracle has %d", spec.Name, p, id, len(progs[id]), len(want[id]))
		}
		for pc := range want[id] {
			op, w := &progs[id][pc], want[id][pc]
			if got := op.Resolve(id); got != w {
				t.Fatalf("%s %+v rank %d op %d: resolved %+v, oracle has %+v", spec.Name, p, id, pc, got, w)
			}
			// The execute path reads Kind, Tag and Comm in place and only
			// the scalars through Scalars: they must be the oracle's too.
			if got, ws := op.Scalars(id), (Scalars{Peer: w.Peer, Dur: w.Dur, Bytes: w.Bytes, Color: w.Color}); got != ws ||
				op.Kind != w.Kind || op.Tag != w.Tag || op.Comm != w.Comm {
				t.Fatalf("%s %+v rank %d op %d: in place %v tag %d comm %d scalars %+v, oracle has %+v",
					spec.Name, p, id, pc, op.Kind, op.Tag, op.Comm, got, w)
			}
		}
	}
}

// asymmetricSpec exercises what no library spec does at once: who
// selectors and scatter/gather on a non-zero root, a root named by two
// different ops, payload jitter on every point-to-point pattern, a
// compute that draws with jitter 0, a scaled compute, a left-going
// isend ring, and a pinned-length phase so tags run on across phases.
const asymmetricSpec = `{
	"name": "asymmetric",
	"splits": [{"group": 3, "shift": 1}, {"group": 4, "shift_half_group": true}],
	"phases": [
		{"name": "warmup", "steps": 2, "ops": [
			{"op": "compute", "mean": "100us", "jitter": 0},
			{"op": "pipeline", "bytes": 4096, "bytes_jitter": 0.25},
			{"op": "compute", "mean": "70us", "jitter": 0.4, "who": "root", "root": 1},
			{"op": "allreduce", "comm": 1, "bytes": 512}
		]},
		{"name": "main", "ops": [
			{"op": "scatter", "bytes": 16384, "bytes_jitter": 0.5, "root": 2},
			{"op": "compute", "mean": "300us", "jitter": 0.4, "scale": 0.5, "who": "others", "root": 2},
			{"op": "sbrk", "bytes": 8192, "who": "root", "root": 1, "when": {"every": 2, "offset": 1}},
			{"op": "ring", "mode": "isend", "dir": "left", "bytes": 2048, "bytes_jitter": 0.1},
			{"op": "alltoall", "bytes": 1024, "bytes_jitter": 0.6, "when": {"every": 3, "offset": 0, "invert": true}},
			{"op": "gather", "bytes": 4096, "bytes_jitter": 0.3, "root": 2},
			{"op": "barrier", "comm": 2}
		]}
	]
}`

// TestCompileMatchesMaterialised is the tentpole's contract: over every
// library spec and the asymmetric one, rank counts on both sides of the
// ranks<2 special cases, empty and short runs, three seeds and the
// group override, each rank resolves exactly the ops the materialising
// compiler stored for it.
func TestCompileMatchesMaterialised(t *testing.T) {
	specs := make([]*Spec, 0, len(Names())+1)
	for _, name := range Names() {
		spec, err := Load(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	asym, err := Parse([]byte(asymmetricSpec))
	if err != nil {
		t.Fatal(err)
	}
	specs = append(specs, asym)
	for _, spec := range specs {
		for _, ranks := range []int{1, 2, 3, 9, 64} {
			if spec == asym && ranks < 3 {
				continue // its roots are ranks 1 and 2
			}
			for _, steps := range []int{0, 1, 7} {
				for _, seed := range []uint64{0, 42, 0xfeedfacecafebeef} {
					for _, group := range []int{0, 2, 8} {
						if group != 0 && !spec.UsesGroup() {
							continue // the override cannot reach a spec without splits
						}
						diffAgainstOracle(t, spec, Params{Ranks: ranks, Steps: steps, Seed: seed, Group: group})
					}
				}
			}
		}
	}
}

// TestCompileSharesOneStreamPerClass pins the representation the memory
// figures rest on: ranks nothing singles out alias one backing array,
// and a singled-out rank does not.
func TestCompileSharesOneStreamPerClass(t *testing.T) {
	same := func(a, b Program) bool { return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0] }
	progs := MustPrograms("stencil", Params{Ranks: 16, Steps: 5, Seed: 1})
	for id := range progs {
		if !same(progs[id], progs[0]) {
			t.Errorf("stencil: rank %d does not share rank 0's stream", id)
		}
	}
	progs = MustPrograms("master-worker", Params{Ranks: 16, Steps: 5, Seed: 1})
	if same(progs[0], progs[1]) {
		t.Error("master-worker: the root shares the workers' stream")
	}
	for id := 2; id < len(progs); id++ {
		if !same(progs[id], progs[1]) {
			t.Errorf("master-worker: worker %d does not share worker 1's stream", id)
		}
	}
	progs = MustPrograms("pipeline", Params{Ranks: 16, Steps: 5, Seed: 1})
	if same(progs[0], progs[1]) || same(progs[15], progs[1]) || same(progs[0], progs[15]) {
		t.Error("pipeline: the first or last stage shares a stream")
	}
	for id := 2; id < 15; id++ {
		if !same(progs[id], progs[1]) {
			t.Errorf("pipeline: stage %d does not share stage 1's stream", id)
		}
	}
}

// TestResolveSharedStreamConcurrently pins "shared means read-only":
// every rank of a job resolves its whole program on its own goroutine
// at once — the way island lanes and concurrent sweep cells read one
// cached compilation — each gets exactly the oracle's ops, and the
// shared streams are bit for bit what they were before anyone read
// them. Under -race a write by Resolve fails the run.
func TestResolveSharedStreamConcurrently(t *testing.T) {
	asym, err := Parse([]byte(asymmetricSpec))
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Ranks: 12, Steps: 9, Seed: 5, Group: 4}
	progs, err := asym.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	want := asym.materialise(p)
	before := make([]Program, len(progs))
	for id := range progs {
		before[id] = slices.Clone(progs[id])
	}
	var wg sync.WaitGroup
	for id := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pc := range progs[id] {
				if got := progs[id][pc].Resolve(id); got != want[id][pc] {
					t.Errorf("rank %d op %d: resolved %+v, oracle has %+v", id, pc, got, want[id][pc])
					return
				}
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(progs, before) {
		t.Error("resolving wrote to a shared program")
	}
}

// randomSpec builds a valid spec from a seeded generator: every op
// pattern, selector, gate and jitter setting the schema allows, with
// roots kept below ranks.
func randomSpec(rng *rand.Rand, ranks int) *Spec {
	s := &Spec{Name: "fuzzed"}
	for i := rng.Intn(3); i > 0; i-- {
		sp := SplitSpec{Group: 2 + rng.Intn(6)}
		switch rng.Intn(3) {
		case 0:
			sp.Shift = rng.Intn(5)
		case 1:
			sp.ShiftHalfGroup = true
		}
		s.Splits = append(s.Splits, sp)
	}
	jitter := func() float64 {
		if rng.Intn(3) == 0 {
			return 0
		}
		return rng.Float64() * 0.99
	}
	for pi, phases := 0, 1+rng.Intn(3); pi < phases; pi++ {
		ph := PhaseSpec{Name: fmt.Sprintf("p%d", pi), Steps: rng.Intn(4)}
		for oi, ops := 0, 1+rng.Intn(6); oi < ops; oi++ {
			var op OpSpec
			switch op.Op = []string{"compute", "ring", "alltoall", "scatter", "gather", "pipeline", "allreduce", "barrier", "sbrk"}[rng.Intn(9)]; op.Op {
			case "compute":
				op.Mean = fmt.Sprintf("%dus", 1+rng.Intn(900))
				op.Jitter = jitter()
				if rng.Intn(2) == 0 {
					op.Scale = 0.25 + rng.Float64()*2
				}
			case "ring":
				op.Mode = []string{"", "send", "isend"}[rng.Intn(3)]
				op.Dir = []string{"", "right", "left"}[rng.Intn(3)]
			case "scatter", "gather":
				op.Root = rng.Intn(ranks)
			case "allreduce", "barrier":
				op.Comm = rng.Intn(len(s.Splits) + 1)
			}
			switch op.Op {
			case "ring", "alltoall", "scatter", "gather", "pipeline":
				op.Bytes = 1 + uint64(rng.Intn(1<<16))
				op.BytesJitter = jitter()
			case "allreduce", "sbrk":
				op.Bytes = 1 + uint64(rng.Intn(1<<16))
			}
			if (op.Op == "compute" || op.Op == "sbrk") && rng.Intn(2) == 0 {
				op.Who = []string{"all", "root", "others"}[rng.Intn(3)]
				if op.Who != "all" {
					op.Root = rng.Intn(ranks)
				}
			}
			if rng.Intn(2) == 0 {
				every := 1 + rng.Intn(4)
				op.When = &WhenSpec{Every: every, Offset: rng.Intn(every), Invert: rng.Intn(2) == 0}
			}
			ph.Ops = append(ph.Ops, op)
		}
		s.Phases = append(s.Phases, ph)
	}
	return s
}

// FuzzCompileVsMaterialised drives the same comparison over generated
// specs: the fuzzer picks the generator seed and the compile parameters.
func FuzzCompileVsMaterialised(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(0), uint64(0), uint8(0))
	f.Add(uint64(2), uint8(2), uint8(3), uint64(42), uint8(2))
	f.Add(uint64(3), uint8(9), uint8(7), uint64(7), uint8(8))
	f.Add(uint64(0xdecaf), uint8(33), uint8(5), ^uint64(0), uint8(0))
	f.Fuzz(func(t *testing.T, gen uint64, ranks, steps uint8, seed uint64, group uint8) {
		p := Params{Ranks: 1 + int(ranks)%48, Steps: int(steps) % 12, Seed: seed}
		spec := randomSpec(rand.New(rand.NewSource(int64(gen))), p.Ranks)
		if err := spec.Validate(); err != nil {
			t.Fatalf("generator built an invalid spec: %v", err)
		}
		if spec.UsesGroup() && group%4 != 0 {
			p.Group = 2 + int(group)%9
		}
		diffAgainstOracle(t, spec, p)
	})
}
