package scenario

import (
	"fmt"
	"slices"
)

// Params sizes a compilation: everything about a run that is not part of
// the workload's shape.
type Params struct {
	// Ranks is the number of ranks to compile programs for.
	Ranks int
	// Steps is the iteration count for phases that do not pin their own.
	Steps int
	// Seed drives the per-rank jitter streams; the same spec, Params and
	// seed always compile to bit-identical programs.
	Seed uint64
	// Group configures nothing: a spec's splits[].group is the one split
	// width. It stays because bench/traced.go:68 sets it.
	Group int
}

// Compile turns the spec into one Program per rank without writing one
// op stream per rank. Ranks whose streams have the same shape — every
// rank no op singles out — share one stream: it is emitted once, with
// the fields that differ between its ranks left as functions of the rank
// id (see Op.Scalars), and each of those ranks is handed a slice header
// onto the same backing array. A rank some op singles out (a
// scatter/gather root, the rank a "who" selector names, the first and
// last pipeline stage) is a class of one with a stream of its own.
// Compile time and memory therefore follow the spec — O(classes × steps)
// ops plus a slice header per rank — not the rank count.
//
// Compilation is deterministic: a stream depends on the spec and Params
// alone, and what a rank resolves from it on its id and Params.Seed.
// The programs are read-only and may be shared by any number of
// concurrent runs.
func (s *Spec) Compile(p Params) ([]Program, error) {
	// Re-validate so programmatically built specs get the same field-level
	// errors as file-loaded ones.
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if p.Ranks < 1 {
		return nil, fmt.Errorf("scenario: compile %q: ranks must be at least 1 (got %d)", s.Name, p.Ranks)
	}
	if p.Ranks > MaxRanks {
		return nil, fmt.Errorf("scenario: compile %q: ranks must be at most %d (got %d)", s.Name, MaxRanks, p.Ranks)
	}
	if p.Steps < 0 {
		return nil, fmt.Errorf("scenario: compile %q: steps must be non-negative (got %d)", s.Name, p.Steps)
	}
	for pi, ph := range s.Phases {
		for oi, op := range ph.Ops {
			if op.singlesOutRoot() && op.Root >= p.Ranks {
				return nil, fmt.Errorf("scenario: compile %q: phases[%d].ops[%d].root: rank %d out of range for %d ranks", s.Name, pi, oi, op.Root, p.Ranks)
			}
		}
	}
	progs := make([]Program, p.Ranks)
	for _, id := range s.singledOut(p.Ranks) {
		progs[id] = s.emit(id, p)
	}
	// Every remaining rank is in one class; the first of them stands for
	// it. (emit never returns nil, so nil marks exactly those ranks.)
	var shared Program
	for id := range progs {
		if progs[id] == nil {
			if shared == nil {
				shared = s.emit(id, p)
			}
			progs[id] = shared
		}
	}
	return progs, nil
}

// singlesOutRoot reports whether the op treats rank Root differently
// from every other rank.
func (op *OpSpec) singlesOutRoot() bool {
	return op.Op == "scatter" || op.Op == "gather" || op.Who == "root" || op.Who == "others"
}

// singledOut lists the ranks whose op stream differs in shape — which
// ops it holds, not just their field values — from the stream of a rank
// nothing names: each is compiled as a class of its own.
func (s *Spec) singledOut(ranks int) []int {
	var ids []int
	add := func(id int) {
		if !slices.Contains(ids, id) {
			ids = append(ids, id)
		}
	}
	for _, ph := range s.Phases {
		for i := range ph.Ops {
			switch op := &ph.Ops[i]; {
			case op.singlesOutRoot():
				add(op.Root)
			case op.Op == "pipeline":
				add(0)
				add(ranks - 1)
			}
		}
	}
	return ids
}

// emit compiles the op stream of the class rank rep stands for. The
// stream is walked twice — once to count, once to fill — so it is
// allocated once at its final size by the same code that emits it.
func (s *Spec) emit(rep int, p Params) Program {
	n := 0
	s.walk(rep, p, func(Op) { n++ })
	prog := make(Program, 0, n)
	s.walk(rep, p, func(op Op) { prog = append(prog, op) })
	return prog
}

// walk emits, in order, the ops of the class rank rep stands for. rep
// decides only which ops appear (the tests against op.Root, 0 and
// ranks-1 below); every value that differs between the ranks of a class
// is emitted in the parametric form Op.Scalars evaluates:
//
//   - a ring, all-to-all or pipeline peer as an offset modulo the world
//     size;
//   - a jittered compute duration or payload as (mean, spread, scale)
//     plus the position of its draw in the rank's jitter stream. The
//     position counts draws in emission order — a compute always draws,
//     a message draws only when bytes_jitter is set — so it is the same
//     for every rank of the class, and because the stream is SplitMix64,
//     whose state is a counter, a rank computes its k-th draw directly
//     (vtime.RNGAt) instead of producing the k-1 before it;
//   - a split colour as (shift, group).
func (s *Spec) walk(rep int, p Params, emit func(Op)) {
	var draws uint64
	drawn := func(par param, spread float64) param {
		draws++
		par.draw, par.seed, par.spread = draws, p.Seed, spread
		return par
	}
	payload := func(op *OpSpec, par param) param {
		if op.BytesJitter <= 0 {
			return par
		}
		return drawn(par, op.BytesJitter)
	}
	// rel marks Peer as an offset from the executing rank; right and left
	// are the ring neighbours in that form.
	rel := param{ranks: p.Ranks}
	right, left := 1, p.Ranks-1

	for _, sp := range s.Splits {
		g := min(sp.Group, p.Ranks)
		shift := sp.Shift
		if sp.ShiftHalfGroup {
			shift = g / 2
		}
		emit(Op{Kind: OpCommSplit, Comm: 0, Color: shift, par: param{group: g}})
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
				if !op.When.match(ps) || !op.emitFor(rep) {
					continue
				}
				if op.pointToPoint() && p.Ranks < 2 {
					continue // a lone rank has no one to exchange with
				}
				switch op.Op {
				case "compute":
					par := drawn(param{}, op.Jitter)
					if par.scale = op.Scale; par.scale == 0 {
						par.scale = 1
					}
					emit(Op{Kind: OpCompute, Dur: op.meanDuration(), par: par})
				case "ring":
					to, from := right, left
					if op.Dir == "left" {
						to, from = left, right
					}
					if op.Mode == "isend" {
						emit(Op{Kind: OpIsend, Peer: to, Bytes: op.Bytes, Tag: step, par: payload(op, rel)})
						emit(Op{Kind: OpRecv, Peer: from, Tag: step, par: rel})
						emit(Op{Kind: OpWait})
					} else {
						emit(Op{Kind: OpSend, Peer: to, Bytes: op.Bytes, Tag: step, par: payload(op, rel)})
						emit(Op{Kind: OpRecv, Peer: from, Tag: step, par: rel})
					}
				case "alltoall":
					for k := 1; k < p.Ranks; k++ {
						emit(Op{Kind: OpSend, Peer: k, Bytes: op.Bytes, Tag: step, par: payload(op, rel)})
					}
					for k := 1; k < p.Ranks; k++ {
						emit(Op{Kind: OpRecv, Peer: k, Tag: step, par: rel})
					}
				case "scatter":
					if rep == op.Root {
						for peer := 0; peer < p.Ranks; peer++ {
							if peer != op.Root {
								emit(Op{Kind: OpSend, Peer: peer, Bytes: op.Bytes, Tag: step, par: payload(op, param{})})
							}
						}
					} else {
						emit(Op{Kind: OpRecv, Peer: op.Root, Tag: step})
					}
				case "gather":
					if rep == op.Root {
						for peer := 0; peer < p.Ranks; peer++ {
							if peer != op.Root {
								emit(Op{Kind: OpRecv, Peer: peer, Tag: step})
							}
						}
					} else {
						emit(Op{Kind: OpSend, Peer: op.Root, Bytes: op.Bytes, Tag: step, par: payload(op, param{})})
					}
				case "pipeline":
					if rep > 0 {
						emit(Op{Kind: OpRecv, Peer: left, Tag: step, par: rel})
					}
					if rep < p.Ranks-1 {
						emit(Op{Kind: OpSend, Peer: right, Bytes: op.Bytes, Tag: step, par: payload(op, rel)})
					}
				case "allreduce":
					emit(Op{Kind: OpAllreduce, Comm: op.Comm, Bytes: op.Bytes})
				case "barrier":
					emit(Op{Kind: OpBarrier, Comm: op.Comm})
				case "sbrk":
					emit(Op{Kind: OpSbrk, Bytes: op.Bytes})
				}
			}
			step++
		}
	}
}

// pointToPoint reports whether the op is a message pattern between
// ranks (as opposed to compute, a collective or heap growth).
func (op *OpSpec) pointToPoint() bool {
	switch op.Op {
	case "ring", "alltoall", "scatter", "gather", "pipeline":
		return true
	}
	return false
}

// emitFor applies the op's Who selector for the given rank.
func (op *OpSpec) emitFor(id int) bool {
	switch op.Who {
	case "root":
		return id == op.Root
	case "others":
		return id != op.Root
	default:
		return true
	}
}
