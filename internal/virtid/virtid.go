// Package virtid implements MANA's handle-virtualisation table: the
// virtual-to-real translation layer that sits on every MPI call's hot
// path (paper §3.3).
//
// MANA cannot hand the application real MPI handles, because the lower
// half — the MPI library that owns them — is discarded at checkpoint and
// rebuilt from scratch at restart, at which point every real handle value
// changes. The upper half therefore only ever sees *virtual* handles, and
// each call that passes a communicator, datatype or request translates it
// through this table on the way down. That translation is per-call work:
// the NERSC production study of MANA (arXiv:2103.08546) identified
// exactly this bookkeeping, a hash-table lookup behind a lock, as the
// dominant steady-state overhead at scale.
//
// The simulator models that cost rather than incurring it. Table is one
// single-owner structure per rank: per kind, a dense window of slots
// indexed by virtual id, with no lock, because only the goroutine
// driving the rank ever touches it. Impl names which of two MANA designs
// the rank is priced as, and kernelsim charges that design's calibrated
// per-lookup and per-write figures:
//
//   - ImplMutex: one global mutex around an ordered map — MANA's original
//     design (DMTCP's VirtualIdTable), the baseline.
//   - ImplSharded: FNV-sharded copy-on-write tables with lock-free reads —
//     cheaper lookups, dearer writes.
//
// The figures are modelled properties of those designs, not measurements
// of this process's table.
//
// Determinism rule: virtual ids are allocated from per-kind counters in
// registration order, and Snapshot returns entries sorted by virtual id,
// so a checkpoint image, a fingerprint or a report depends only on the
// sequence of registrations.
package virtid

import (
	"fmt"
	"strconv"

	"mana/internal/vtime"
)

// Kind identifies which handle namespace a virtual id lives in. MPI
// handle spaces are disjoint (a communicator and a datatype may share a
// numeric value), so the table keeps one namespace per kind.
type Kind int

const (
	// Comm is the communicator namespace (MPI_Comm).
	Comm Kind = iota
	// Datatype is the datatype namespace (MPI_Datatype).
	Datatype
	// Request is the request namespace (MPI_Request) — the churn-heavy
	// kind: nonblocking operations register a request at post time and
	// deregister it when the matching wait completes.
	Request
	// NumKinds is the number of handle namespaces.
	NumKinds = iota
)

// String returns the MPI-style name of the handle kind.
func (k Kind) String() string {
	switch k {
	case Comm:
		return "comm"
	case Datatype:
		return "datatype"
	case Request:
		return "request"
	default:
		return "unknown"
	}
}

// VID is a virtual handle id — the only handle form the upper half ever
// sees. The zero VID is never allocated and never resolves, so it can
// serve as a null handle.
type VID uint64

// Real is a real handle value as the live lower half knows it. Real
// values are opaque to the upper half and die with the lower half at
// checkpoint.
type Real uint64

// LookupCounts records how many translations of each kind one MPI call
// performs; kernelsim charges the per-call virtualisation cost from it.
type LookupCounts struct {
	Comm     uint64
	Datatype uint64
	Request  uint64
}

// Total returns the total number of lookups the counts describe.
func (c LookupCounts) Total() uint64 { return c.Comm + c.Datatype + c.Request }

// Calibrated per-operation virtual-time costs of the two modelled MANA
// designs. MutexLookupCost is a table probe plus the acquisition of a
// globally shared mutex. The sharded design's lock-free read path drops
// the lock acquisition and the shared cache-line bounce, leaving little
// more than the hash probe itself.
//
// Writes (Register/Deregister) price the opposite way: the baseline
// appends or shifts under the lock it already holds, while the sharded
// design pays a shard-local copy-on-write rebuild so that readers never
// block. The design bet, as in MANA itself, is that lookups outnumber
// handle births by orders of magnitude, so the read saving dominates.
const (
	// MutexLookupCost is the calibrated cost of one translation in the
	// baseline design (ordered probe + global lock).
	MutexLookupCost = 35 * vtime.Nanosecond
	// ShardedLookupCost is the calibrated cost of one translation on the
	// sharded design's lock-free read path (FNV hash + atomic load +
	// open-addressed probe).
	ShardedLookupCost = 8 * vtime.Nanosecond
	// MutexWriteCost is the calibrated cost of one Register or Deregister
	// in the baseline: an append or shift under the same global lock.
	MutexWriteCost = 20 * vtime.Nanosecond
	// ShardedWriteCost is the calibrated cost of one Register or
	// Deregister in the sharded design: the shard-local copy-on-write
	// rebuild plus the atomic publication.
	ShardedWriteCost = 110 * vtime.Nanosecond
)

// Impl selects the MANA table design a rank is priced as.
type Impl int

const (
	// ImplMutex is the single-global-mutex baseline, matching MANA's
	// original design.
	ImplMutex Impl = iota
	// ImplSharded is the optimised design: FNV-sharded, lock-free reads.
	ImplSharded
)

// String returns the implementation's CLI name.
func (i Impl) String() string {
	switch i {
	case ImplMutex:
		return "mutex"
	case ImplSharded:
		return "sharded"
	default:
		return "unknown"
	}
}

// ParseImpl converts a CLI name into an Impl.
func ParseImpl(s string) (Impl, error) {
	switch s {
	case "mutex":
		return ImplMutex, nil
	case "sharded":
		return ImplSharded, nil
	default:
		return 0, fmt.Errorf("unknown virtid implementation %q (want mutex or sharded)", s)
	}
}

// LookupCost returns the design's calibrated per-lookup cost.
func (i Impl) LookupCost() vtime.Duration {
	if i == ImplSharded {
		return ShardedLookupCost
	}
	return MutexLookupCost
}

// WriteCost returns the design's calibrated cost of one Register or
// Deregister.
func (i Impl) WriteCost() vtime.Duration {
	if i == ImplSharded {
		return ShardedWriteCost
	}
	return MutexWriteCost
}

// Entry is one virtual-to-real mapping in a snapshot.
type Entry struct {
	VID  VID
	Real Real
}

// Snapshot is a deterministic capture of a table: per-kind entries sorted
// by virtual id, plus the per-kind allocation counters so that replayed
// registrations after restart reproduce the same virtual ids. A snapshot
// taken from a table may be shared with other captures of the same state:
// treat it as immutable.
type Snapshot struct {
	Next    [NumKinds]uint64
	Entries [NumKinds][]Entry
	// text is Text's result, rendered once when a Table took the
	// snapshot; empty for a snapshot assembled any other way.
	text []byte
}

// Text returns the snapshot's canonical text — per kind,
// "vt(kind,next,vid=real,...);" with real handles in hex — which is what
// a checkpoint fingerprint digests of the table. A snapshot that carries
// the text pre-rendered returns it, shared: the caller must not modify
// it. Any other snapshot renders it afresh.
func (s *Snapshot) Text() []byte {
	if len(s.text) > 0 {
		return s.text
	}
	return s.appendText(nil)
}

func (s *Snapshot) appendText(b []byte) []byte {
	for k := 0; k < NumKinds; k++ {
		b = strconv.AppendInt(append(b, "vt("...), int64(k), 10)
		b = strconv.AppendUint(append(b, ','), s.Next[k], 10)
		for _, e := range s.Entries[k] {
			b = strconv.AppendUint(append(b, ','), uint64(e.VID), 10)
			b = strconv.AppendUint(append(b, '='), uint64(e.Real), 16)
		}
		b = append(b, ");"...)
	}
	return b
}

// Live returns the total number of mappings in the snapshot.
func (s Snapshot) Live() int {
	n := 0
	for k := 0; k < NumKinds; k++ {
		n += len(s.Entries[k])
	}
	return n
}
