// Package scenario turns declarative workload specifications into the
// per-rank operation streams the simulated MPI ranks execute.
//
// A Spec describes a workload's shape as data — communicator splits,
// phases, per-step communication patterns, compute and message-size
// distributions, checkpoint-trigger policy — parsed from a small JSON
// schema whose validation errors name the offending field. Compile turns
// a Spec into one Program per rank, but not into one copy per rank: as
// in the paper's split process, where every rank runs the same
// upper-half binary, ranks whose op streams have the same shape share
// one stream, and each resolves the op under its program counter to
// concrete values from its own id when it executes it (Op.Scalars).
// Compilation and resolution are deterministic (same spec, same Params,
// same resolved ops, bit for bit), which is what lets the simulator's
// determinism guarantees extend to data-defined workloads.
package scenario

import "mana/internal/vtime"

// OpKind identifies one scripted workload operation.
type OpKind int

const (
	OpCompute OpKind = iota
	OpSend
	OpRecv
	// OpIsend is a nonblocking send: it injects the message immediately
	// and registers a request handle in the virtualisation table that
	// stays live until the matching OpWait retires it.
	OpIsend
	// OpWait completes the oldest outstanding nonblocking operation,
	// translating and deregistering its request handle.
	OpWait
	OpBarrier
	OpAllreduce
	OpSbrk
	// OpCommSplit is MPI_Comm_split over the parent communicator slot
	// Comm, contributing Color: a collective that, on completion, mints a
	// new sub-communicator handle (registered in the virtualisation
	// table) in the next free communicator slot of every participant that
	// supplied the same colour.
	OpCommSplit
)

// String returns a short name for the op kind.
func (k OpKind) String() string {
	switch k {
	case OpCompute:
		return "compute"
	case OpSend:
		return "send"
	case OpRecv:
		return "recv"
	case OpIsend:
		return "isend"
	case OpWait:
		return "wait"
	case OpBarrier:
		return "barrier"
	case OpAllreduce:
		return "allreduce"
	case OpSbrk:
		return "sbrk"
	case OpCommSplit:
		return "comm-split"
	default:
		return "unknown"
	}
}

// Op is one scripted operation. Which fields are meaningful depends on
// Kind: Dur for compute, Peer+Bytes+Tag for send/recv, Bytes for
// allreduce payload and sbrk growth. Comm selects the communicator slot
// the operation runs over (0 is MPI_COMM_WORLD; slots above 0 are
// sub-communicators in the order the rank's comm-splits created them),
// and Color is the rank's colour contribution to an OpCommSplit.
//
// An op built from these fields alone, as a test does, is literal: it
// means the same to every rank. An op in a compiled Program may instead
// be shared by many ranks, with Peer, Color, Dur or Bytes holding one
// ingredient of a value that depends on the rank; Scalars
// (or Resolve, which returns a literal op built on it) is the one way to
// read those fields of such a program. Kind, Tag and Comm never depend
// on the rank.
type Op struct {
	Kind  OpKind
	Dur   vtime.Duration
	Peer  int
	Bytes uint64
	Tag   int
	Comm  int
	Color int

	par param
}

// param is the rank-parametric part of a compiled op; the zero param
// marks a literal op. Each part that is set makes one field of the op a
// function of the executing rank's id. Everything a rank needs beyond
// its id (world size, job seed) is carried here, so a Program is
// self-contained.
type param struct {
	// ranks, when non-zero, is the world size and makes Peer an offset
	// in [0, ranks): the peer is (id + Peer) mod ranks.
	ranks int
	// group, when non-zero, makes Color a shift: the colour is
	// (id + Color) / group.
	group int
	// draw, when non-zero, makes Dur (of a compute) or Bytes (of a send)
	// the mean of a jittered quantity: the value is mean × j, where j
	// is the draw-th jitter factor (counting from 1) of the rank's
	// stream — SplitMix64 seeded from seed and the rank id — at the
	// given spread. A compute's duration is further multiplied by scale.
	draw          uint64
	seed          uint64
	spread, scale float64
}

// rankSeedStride spreads the job seed into one jitter-stream seed per
// rank: rank id's stream is seeded with seed ^ (id+1)·rankSeedStride.
const rankSeedStride = 0x9e3779b97f4a7c15

// Scalars are the fields of an op that may depend on the executing
// rank, as that rank executes it. Which are meaningful follows Kind (see
// Op); the rest are copied through.
type Scalars struct {
	Peer  int
	Dur   vtime.Duration
	Bytes uint64
	Color int
}

// Scalars resolves only the rank-dependent fields of the op for rank id:
// the one resolver, which Resolve and the rank's execute path share. The
// result is four words, returned in registers, so an executing rank
// reads Kind, Tag and Comm in place from the shared op and never copies
// the op itself. It writes nothing, so any number of ranks, on any
// goroutines, may resolve the same shared op concurrently.
func (op *Op) Scalars(id int) Scalars {
	v := Scalars{Peer: op.Peer, Dur: op.Dur, Bytes: op.Bytes, Color: op.Color}
	par := &op.par
	if par.ranks != 0 {
		// id and the offset are both below ranks: one subtraction is the
		// modulo.
		if v.Peer += id; v.Peer >= par.ranks {
			v.Peer -= par.ranks
		}
	}
	if par.group != 0 {
		v.Color = (id + op.Color) / par.group
	}
	if par.draw != 0 {
		rng := vtime.RNGAt(par.seed^(uint64(id)+1)*rankSeedStride, par.draw)
		j := rng.Jitter(par.spread)
		if op.Kind == OpCompute {
			v.Dur = vtime.Duration(float64(op.Dur) * j * par.scale)
		} else {
			v.Bytes = uint64(float64(op.Bytes) * j)
		}
	}
	return v
}

// Resolve returns the op as rank id executes it: a literal op, equal
// field for field to what a per-rank compilation would have stored.
// Resolving a literal op returns it unchanged.
func (op *Op) Resolve(id int) Op {
	v := op.Scalars(id)
	return Op{Kind: op.Kind, Dur: v.Dur, Peer: v.Peer, Bytes: v.Bytes, Tag: op.Tag, Comm: op.Comm, Color: v.Color}
}

// Program is one rank's op stream — the only script source the rank
// runtime consumes; len is the rank's op count. Programs come from Spec
// compilation (where the ranks of a class share one backing array, read
// through Op.Scalars) or from a test building literal ops directly. A
// Program is never written after it is built.
type Program []Op
