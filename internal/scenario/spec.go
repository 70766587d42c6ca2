package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"mana/internal/faultplan"
	"mana/internal/storage"
	"mana/internal/vtime"
)

// Spec is a declarative workload description. It is pure data: the shape
// of a run (communicator splits, phases of per-step operations, the
// checkpoint-trigger policy) without rank counts, step counts or seeds —
// those arrive at compile time as Params, so one spec file serves every
// job size in the smoke matrix.
type Spec struct {
	// Name identifies the spec in reports and error messages; for library
	// specs it matches the file name.
	Name string `json:"name"`
	// Description is a one-line summary shown in documentation.
	Description string `json:"description,omitempty"`
	// Splits are comm-splits of MPI_COMM_WORLD executed once, in order,
	// before the first phase. The i-th split populates communicator slot
	// i+1 on every rank.
	Splits []SplitSpec `json:"splits,omitempty"`
	// Phases run in order; each repeats its op list for a number of steps.
	Phases []PhaseSpec `json:"phases"`
	// Checkpoints is the trigger policy armed when the spec runs under
	// cmd/manasim: one trigger per entry, all firing at the CLI's
	// -ckpt-at time. Empty means the default policy (at, in-flight,
	// mid-collective).
	Checkpoints []CheckpointSpec `json:"checkpoints,omitempty"`
	// Faults is the spec's declarative fault-injection plan (see the
	// faultplan package): an ordered list of one-shot failures at named
	// protocol points, plus an optional restart budget. The CLI's -faults
	// flag overrides it; when either is present the default scenario's
	// crash after checkpoint #2 is disabled.
	Faults *faultplan.Plan `json:"faults,omitempty"`
	// Storage is the spec's checkpoint I/O configuration (see the storage
	// package): contended PFS bandwidth, burst-buffer staging, delta-page
	// compression. The CLI's -storage flag replaces it whole; there is
	// no other way to set the pipeline.
	Storage *storage.Spec `json:"storage,omitempty"`
}

// SplitSpec describes one MPI_Comm_split of the world communicator into
// contiguous groups: rank id contributes colour (id+shift)/group.
type SplitSpec struct {
	// Group is the sub-communicator width (at least 2). A compile-time
	// Params.Group override replaces it on every split.
	Group int `json:"group"`
	// Shift offsets the grouping so the communicators straddle those of
	// an unshifted split.
	Shift int `json:"shift,omitempty"`
	// ShiftHalfGroup sets the shift to half the (possibly overridden,
	// possibly clamped) group width, whatever it ends up being.
	ShiftHalfGroup bool `json:"shift_half_group,omitempty"`
}

// PhaseSpec is a run of identical steps.
type PhaseSpec struct {
	// Name labels the phase in error messages.
	Name string `json:"name"`
	// Steps is the phase's iteration count; 0 means "use Params.Steps",
	// which is how a single-phase spec inherits the CLI's -steps flag.
	Steps int `json:"steps,omitempty"`
	// Ops are emitted in order on every step of the phase.
	Ops []OpSpec `json:"ops"`
}

// WhenSpec gates an op to a periodic subset of a phase's steps:
// step%every == offset (or every step except those, with invert).
type WhenSpec struct {
	Every  int  `json:"every"`
	Offset int  `json:"offset,omitempty"`
	Invert bool `json:"invert,omitempty"`
}

func (w *WhenSpec) match(step int) bool {
	if w == nil {
		return true
	}
	hit := step%w.Every == w.Offset
	if w.Invert {
		return !hit
	}
	return hit
}

// OpSpec is one operation pattern within a phase step. Op selects the
// pattern; the other fields parameterise it:
//
//	compute   — advance the rank's clock by mean × jitter × scale
//	ring      — exchange with ring neighbours (mode send|isend, dir right|left)
//	alltoall  — send bytes to every other rank, then receive from each
//	scatter   — root sends bytes to every other rank; others receive
//	gather    — every other rank sends bytes to root; root receives
//	pipeline  — receive from rank-1, send to rank+1 (chain dataflow)
//	allreduce — collective reduction of bytes on communicator comm
//	barrier   — collective barrier on communicator comm
//	sbrk      — grow the rank's heap by bytes
type OpSpec struct {
	Op string `json:"op"`
	// Mean is the nominal compute duration (Go duration syntax, e.g.
	// "250us"); compute only.
	Mean string `json:"mean,omitempty"`
	// Jitter spreads compute durations multiplicatively in [1-j, 1+j],
	// drawn from the rank's deterministic per-rank stream.
	Jitter float64 `json:"jitter,omitempty"`
	// Scale multiplies the compute duration after jitter (default 1).
	Scale float64 `json:"scale,omitempty"`
	// Bytes is the payload (point-to-point and allreduce) or growth (sbrk).
	Bytes uint64 `json:"bytes,omitempty"`
	// BytesJitter spreads point-to-point payload sizes multiplicatively,
	// one deterministic draw per emitted message.
	BytesJitter float64 `json:"bytes_jitter,omitempty"`
	// Mode picks the ring exchange flavour: "send" (default, blocking) or
	// "isend" (nonblocking send + recv + wait, leaving a request handle
	// live across the receive).
	Mode string `json:"mode,omitempty"`
	// Dir picks the ring direction: "right" (default) or "left".
	Dir string `json:"dir,omitempty"`
	// Comm is the communicator slot for collectives (0 = world, i = the
	// i-th split's communicator).
	Comm int `json:"comm,omitempty"`
	// Root is the scatter/gather root rank (default 0), also the rank
	// selected by Who.
	Root int `json:"root,omitempty"`
	// Who restricts compute/sbrk ops to a subset of ranks: "all"
	// (default), "root", or "others".
	Who string `json:"who,omitempty"`
	// When gates the op to a periodic subset of steps.
	When *WhenSpec `json:"when,omitempty"`

	mean vtime.Duration // parsed from Mean during validation
}

// CheckpointSpec is one armed checkpoint trigger.
type CheckpointSpec struct {
	// Kind is the trigger condition: "at" (fire at the trigger time),
	// "in-flight" (…once point-to-point messages are in flight),
	// "mid-collective" (…once a collective is partially arrived), or
	// "forming-colls" (…once at least Colls collectives are forming).
	Kind string `json:"kind"`
	// Colls is the forming-colls threshold; required for that kind only.
	Colls int `json:"colls,omitempty"`
}

// Limits on quantities that arrive from outside the program (a spec
// file, a trace file, a command line) and size an allocation. Each is a
// fixed property of the simulator, checked where the input is read.
const (
	// MaxRanks bounds the ranks of one job. Per-rank tables are sized
	// from it before the first op is read.
	MaxRanks = 1 << 20
	// MaxSbrkBytes bounds one sbrk op's heap growth (1 TiB). The heap's
	// pages are stored sparsely, but its dirty bitmap is one bit per
	// page of the growth.
	MaxSbrkBytes = 1 << 40
)

// Parse decodes and validates a spec. Unknown fields, malformed JSON and
// semantic errors are all reported with the offending field named.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("scenario: parsing spec: trailing data after the spec object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// errf builds a validation error of the form
// `scenario: spec "name": <path>: <problem>`.
func (s *Spec) errf(path, format string, args ...any) error {
	return fmt.Errorf("scenario: spec %q: %s: %s", s.Name, path, fmt.Sprintf(format, args...))
}

// Validate checks the spec's semantic constraints, naming the offending
// field in every error, and resolves parsed forms (durations).
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec: name: required")
	}
	for i, sp := range s.Splits {
		path := fmt.Sprintf("splits[%d]", i)
		if sp.Group < 2 {
			return s.errf(path+".group", "must be at least 2 (got %d)", sp.Group)
		}
		if sp.Shift < 0 {
			return s.errf(path+".shift", "must be non-negative (got %d)", sp.Shift)
		}
		if sp.Shift > 0 && sp.ShiftHalfGroup {
			return s.errf(path+".shift", "cannot combine with shift_half_group")
		}
	}
	if s.Faults != nil {
		if err := s.Faults.ValidateNamed(s.errf); err != nil {
			return err
		}
	}
	if s.Storage != nil {
		if err := s.Storage.ValidateNamed(func(path, format string, args ...any) error {
			return s.errf("storage."+path, format, args...)
		}); err != nil {
			return err
		}
	}
	if len(s.Phases) == 0 {
		return s.errf("phases", "at least one phase required")
	}
	for pi := range s.Phases {
		ph := &s.Phases[pi]
		path := fmt.Sprintf("phases[%d]", pi)
		if ph.Name == "" {
			return s.errf(path+".name", "required")
		}
		if ph.Steps < 0 {
			return s.errf(path+".steps", "must be non-negative (got %d)", ph.Steps)
		}
		if len(ph.Ops) == 0 {
			return s.errf(path+".ops", "at least one op required")
		}
		for oi := range ph.Ops {
			if err := s.validateOp(&ph.Ops[oi], fmt.Sprintf("%s.ops[%d]", path, oi)); err != nil {
				return err
			}
		}
	}
	for i, ck := range s.Checkpoints {
		path := fmt.Sprintf("checkpoints[%d]", i)
		switch ck.Kind {
		case "at", "in-flight", "mid-collective":
			if ck.Colls != 0 {
				return s.errf(path+".colls", "only valid for kind \"forming-colls\"")
			}
		case "forming-colls":
			if ck.Colls < 1 {
				return s.errf(path+".colls", "must be at least 1 (got %d)", ck.Colls)
			}
		default:
			return s.errf(path+".kind", "unknown kind %q (want at, in-flight, mid-collective or forming-colls)", ck.Kind)
		}
	}
	return nil
}

func (s *Spec) validateOp(op *OpSpec, path string) error {
	if op.When != nil {
		if op.When.Every < 1 {
			return s.errf(path+".when.every", "must be at least 1 (got %d)", op.When.Every)
		}
		if op.When.Offset < 0 || op.When.Offset >= op.When.Every {
			return s.errf(path+".when.offset", "must be in [0, every) (got %d with every=%d)", op.When.Offset, op.When.Every)
		}
	}
	if op.Root < 0 {
		return s.errf(path+".root", "must be non-negative (got %d)", op.Root)
	}
	switch op.Who {
	case "", "all", "root", "others":
	default:
		return s.errf(path+".who", "unknown selector %q (want all, root or others)", op.Who)
	}
	if op.Mean != "" && op.Op != "compute" {
		return s.errf(path+".mean", "only valid for op \"compute\"")
	}
	if op.Jitter < 0 || op.Jitter >= 1 {
		return s.errf(path+".jitter", "must be in [0, 1) (got %g)", op.Jitter)
	}
	if op.BytesJitter < 0 || op.BytesJitter >= 1 {
		return s.errf(path+".bytes_jitter", "must be in [0, 1) (got %g)", op.BytesJitter)
	}
	if op.Scale < 0 {
		return s.errf(path+".scale", "must be non-negative (got %g)", op.Scale)
	}
	if op.Comm < 0 || op.Comm > len(s.Splits) {
		return s.errf(path+".comm", "slot %d out of range: spec has %d splits (valid slots 0..%d)", op.Comm, len(s.Splits), len(s.Splits))
	}

	needBytes := func() error {
		if op.Bytes == 0 {
			return s.errf(path+".bytes", "required for op %q", op.Op)
		}
		return nil
	}
	switch op.Op {
	case "compute":
		if op.Mean == "" {
			return s.errf(path+".mean", "required for op \"compute\"")
		}
		d, err := time.ParseDuration(op.Mean)
		if err != nil || d <= 0 {
			return s.errf(path+".mean", "not a positive duration: %q", op.Mean)
		}
		op.mean = vtime.Duration(d)
	case "ring":
		switch op.Mode {
		case "", "send", "isend":
		default:
			return s.errf(path+".mode", "unknown mode %q (want send or isend)", op.Mode)
		}
		switch op.Dir {
		case "", "right", "left":
		default:
			return s.errf(path+".dir", "unknown dir %q (want right or left)", op.Dir)
		}
		if err := needBytes(); err != nil {
			return err
		}
	case "alltoall", "scatter", "gather", "pipeline":
		if err := needBytes(); err != nil {
			return err
		}
	case "allreduce", "sbrk":
		if err := needBytes(); err != nil {
			return err
		}
		if op.Op == "sbrk" && op.Bytes > MaxSbrkBytes {
			return s.errf(path+".bytes", "must be at most %d for op \"sbrk\" (got %d)", uint64(MaxSbrkBytes), op.Bytes)
		}
	case "barrier":
		if op.Bytes != 0 {
			return s.errf(path+".bytes", "not valid for op \"barrier\"")
		}
	case "":
		return s.errf(path+".op", "required")
	default:
		return s.errf(path+".op", "unknown op %q (want compute, ring, alltoall, scatter, gather, pipeline, allreduce, barrier or sbrk)", op.Op)
	}

	if op.Jitter > 0 && op.Op != "compute" {
		return s.errf(path+".jitter", "only valid for op \"compute\" (use bytes_jitter for payload spread)")
	}
	if op.Scale != 0 && op.Op != "compute" {
		return s.errf(path+".scale", "only valid for op \"compute\"")
	}
	if op.BytesJitter > 0 && !op.pointToPoint() {
		return s.errf(path+".bytes_jitter", "only valid for point-to-point ops (op %q would break SPMD agreement)", op.Op)
	}
	if op.Who != "" && op.Op != "compute" && op.Op != "sbrk" {
		return s.errf(path+".who", "only valid for compute and sbrk (op %q must stay SPMD)", op.Op)
	}
	if op.Comm != 0 && op.Op != "allreduce" && op.Op != "barrier" {
		return s.errf(path+".comm", "only valid for allreduce and barrier")
	}
	if op.Root != 0 && op.Op != "scatter" && op.Op != "gather" && op.Who == "" {
		return s.errf(path+".root", "only valid for scatter, gather, or ops gated by \"who\"")
	}
	return nil
}

// UsesGroup reports whether a compile-time group override would change
// the compiled programs — i.e. whether the spec performs comm-splits.
func (s *Spec) UsesGroup() bool { return len(s.Splits) > 0 }
