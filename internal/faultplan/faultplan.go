// Package faultplan compiles declarative fault-injection plans for the
// simulator. A plan is an ordered list of injections, each anchored to a
// protocol point in the two-phase checkpoint lifecycle — a checkpoint
// commit, the start of a collective drain, the image-write stage, an
// absolute virtual time, or the restart procedure itself — and carrying a
// failure kind: a whole-job rank crash, a torn (partially written) image,
// or silent page corruption.
//
// Plans arrive either as a `faults` section inside a scenario spec or as a
// standalone JSON document via the -faults CLI flag. Validation follows the
// scenario engine's named-field error style: every error names the exact
// offending field, e.g. `faultplan: faults[1].pages: must be at least 1 for
// kind "page-corruption"`. The default scenario's crash is one such plan,
// DefaultCrash.
package faultplan

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"mana/internal/vtime"
)

// Anchor identifies the protocol point a fault fires at.
type Anchor int

const (
	// AtCheckpointCommit fires Delay after checkpoint #N commits — the
	// default scenario's failure point (DefaultCrash).
	AtCheckpointCommit Anchor = iota
	// AtDrainStart fires Delay after the drain for upcoming checkpoint #N
	// begins, killing the job while the topo-ordered drain plan is still
	// partially executed.
	AtDrainStart
	// AtImageWrite fires during the image-write stage of checkpoint #N,
	// tearing or corrupting the target rank's image.
	AtImageWrite
	// AtVirtualTime fires at an absolute virtual time, regardless of
	// checkpoint activity.
	AtVirtualTime
	// AtRestart fires during the N-th restart attempt, after the restore
	// candidate has been chosen but before state is restored.
	AtRestart
)

// String returns the anchor's spelling in plan JSON.
func (a Anchor) String() string {
	switch a {
	case AtCheckpointCommit:
		return "checkpoint-commit"
	case AtDrainStart:
		return "drain-start"
	case AtImageWrite:
		return "image-write"
	case AtVirtualTime:
		return "virtual-time"
	case AtRestart:
		return "restart"
	}
	return fmt.Sprintf("anchor(%d)", int(a))
}

// Hop qualifies an image-write anchor with the checkpoint I/O hop the
// fault strikes: the commit-time stage into the node's burst buffer (or
// the direct PFS write when staging is off), or the later asynchronous
// buffer→PFS drain. Bare "image-write" keeps its historical meaning as a
// documented alias for the stage hop.
type Hop int

const (
	// HopStage is the commit-time write — the only hop that existed
	// before the two-tier pipeline, hence the zero value and the bare
	// "image-write" alias.
	HopStage Hop = iota
	// HopDrain is the asynchronous burst-buffer→PFS drain; faults here
	// damage the durable PFS copy after the job has already moved on.
	HopDrain
)

// String returns the hop's spelling in an anchor qualifier.
func (h Hop) String() string {
	switch h {
	case HopStage:
		return "stage"
	case HopDrain:
		return "drain"
	}
	return fmt.Sprintf("hop(%d)", int(h))
}

// Kind identifies what failure the fault injects.
type Kind int

const (
	// RankCrash kills the whole job; the fleet engine restarts it from the
	// newest verifiable image.
	RankCrash Kind = iota
	// TornWrite interrupts the target rank's image write, leaving a
	// partial image (Complete=false with a byte-accurate written size).
	TornWrite
	// PageCorruption silently flips a byte in each of the first Pages
	// materialised pages of the target rank's image; the run continues and
	// the damage surfaces only when restart verification rehashes the link.
	PageCorruption
)

// String returns the kind's spelling in plan JSON.
func (k Kind) String() string {
	switch k {
	case RankCrash:
		return "rank-crash"
	case TornWrite:
		return "torn-write"
	case PageCorruption:
		return "page-corruption"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Spec is one declarative injection as it appears in plan JSON.
type Spec struct {
	// At anchors the fault: "checkpoint-commit", "drain-start",
	// "image-write", "virtual-time", or "restart". An image-write anchor
	// may carry a hop qualifier — "image-write/stage" strikes the
	// commit-time write, "image-write/drain" the asynchronous
	// burst-buffer→PFS drain; bare "image-write" is the documented alias
	// for the stage hop.
	At string `json:"at"`
	// N is the 1-based ordinal for checkpoint-commit / drain-start /
	// image-write (checkpoint sequence number) and restart (attempt
	// number). Invalid for virtual-time.
	N int `json:"n,omitempty"`
	// Time is the absolute virtual time for virtual-time anchors, as a Go
	// duration string ("12ms"). Invalid elsewhere.
	Time string `json:"time,omitempty"`
	// Kind is the failure kind: "rank-crash", "torn-write", or
	// "page-corruption". Torn writes and page corruption are only valid at
	// image-write anchors; rank crashes everywhere else.
	Kind string `json:"kind"`
	// Rank is the target rank for image-write faults. Invalid elsewhere.
	Rank int `json:"rank,omitempty"`
	// Delay postpones a checkpoint-commit or drain-start crash by a Go
	// duration ("250us"). Invalid elsewhere.
	Delay string `json:"delay,omitempty"`
	// Pages sizes the damage: for torn-write, the number of whole pages
	// written before the tear (0 = half the payload); for page-corruption,
	// the number of leading pages to corrupt (at least 1). Invalid for
	// rank-crash.
	Pages int `json:"pages,omitempty"`
}

// Plan is an ordered fault-injection plan.
type Plan struct {
	// Faults fire in protocol order; each is one-shot.
	Faults []Spec `json:"faults"`
	// MaxRestarts bounds the fleet engine's restart loop for this plan
	// (0 = engine default).
	MaxRestarts int `json:"max_restarts,omitempty"`
}

// Fault is a compiled injection with parsed times and a range-checked rank.
type Fault struct {
	Anchor Anchor
	// Hop is meaningful only for AtImageWrite anchors; its zero value
	// (HopStage) is what bare "image-write" compiles to.
	Hop   Hop
	N     int
	Time  vtime.Time
	Kind  Kind
	Rank  int
	Delay vtime.Duration
	Pages int
}

// Parse decodes a standalone plan document, rejecting unknown fields and
// trailing garbage, then validates it.
func Parse(data []byte) (*Plan, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("faultplan: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("faultplan: trailing data after plan document")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Validate checks the plan standalone; errors name the offending field as
// `faultplan: faults[i].<field>: <problem>`.
func (p *Plan) Validate() error {
	return p.ValidateNamed(func(path, format string, args ...any) error {
		return fmt.Errorf("faultplan: %s: %s", path, fmt.Sprintf(format, args...))
	})
}

// ValidateNamed checks the plan, constructing errors through errf so an
// enclosing document (a scenario spec's `faults` section) can graft its own
// path prefix. errf receives the field path relative to the plan root.
func (p *Plan) ValidateNamed(errf func(path, format string, args ...any) error) error {
	if p.MaxRestarts < 0 {
		return errf("max_restarts", "must be non-negative, got %d", p.MaxRestarts)
	}
	if len(p.Faults) == 0 {
		return errf("faults", "plan declares no faults")
	}
	for i, f := range p.Faults {
		if err := f.validate(fmt.Sprintf("faults[%d]", i), errf); err != nil {
			return err
		}
	}
	return nil
}

func (f *Spec) validate(path string, errf func(path, format string, args ...any) error) error {
	anchor, _, ok := parseAnchor(f.At)
	if !ok {
		if base, qual, found := strings.Cut(f.At, "/"); found {
			if a, _, baseOK := parseAnchor(base); baseOK {
				if a != AtImageWrite {
					return errf(path+".at", "anchor %q takes no hop qualifier, got %q", base, qual)
				}
				return errf(path+".at", "unknown hop qualifier %q for anchor \"image-write\" (want \"stage\" or \"drain\")", qual)
			}
		}
		return errf(path+".at", "unknown anchor %q (want \"checkpoint-commit\", \"drain-start\", \"image-write[/stage|/drain]\", \"virtual-time\", or \"restart\")", f.At)
	}
	kind, ok := parseKind(f.Kind)
	if !ok {
		return errf(path+".kind", "unknown kind %q (want \"rank-crash\", \"torn-write\", or \"page-corruption\")", f.Kind)
	}

	if anchor == AtVirtualTime {
		if f.N != 0 {
			return errf(path+".n", "only valid for ordinal anchors, not \"virtual-time\"")
		}
		d, err := time.ParseDuration(f.Time)
		if f.Time == "" || err != nil {
			return errf(path+".time", "anchor \"virtual-time\" needs a Go duration, got %q", f.Time)
		}
		if d <= 0 {
			return errf(path+".time", "must be positive, got %q", f.Time)
		}
	} else {
		if f.Time != "" {
			return errf(path+".time", "only valid for anchor \"virtual-time\"")
		}
		if f.N < 1 {
			return errf(path+".n", "anchor %q needs an ordinal of at least 1, got %d", f.At, f.N)
		}
	}

	if anchor == AtImageWrite {
		if kind == RankCrash {
			return errf(path+".kind", "anchor \"image-write\" wants \"torn-write\" or \"page-corruption\", not \"rank-crash\"")
		}
	} else if kind != RankCrash {
		return errf(path+".kind", "kind %q is only valid at \"image-write\" anchors", f.Kind)
	}

	if f.Rank != 0 && anchor != AtImageWrite {
		return errf(path+".rank", "only valid for \"image-write\" faults")
	}
	if f.Rank < 0 {
		return errf(path+".rank", "must be non-negative, got %d", f.Rank)
	}

	if f.Delay != "" {
		if anchor != AtCheckpointCommit && anchor != AtDrainStart {
			return errf(path+".delay", "only valid for \"checkpoint-commit\" and \"drain-start\" crashes")
		}
		d, err := time.ParseDuration(f.Delay)
		if err != nil {
			return errf(path+".delay", "not a Go duration: %q", f.Delay)
		}
		if d < 0 {
			return errf(path+".delay", "must be non-negative, got %q", f.Delay)
		}
	}

	switch kind {
	case RankCrash:
		if f.Pages != 0 {
			return errf(path+".pages", "only valid for \"torn-write\" and \"page-corruption\" faults")
		}
	case TornWrite:
		if f.Pages < 0 {
			return errf(path+".pages", "must be non-negative, got %d (0 = tear at half the payload)", f.Pages)
		}
	case PageCorruption:
		if f.Pages < 1 {
			return errf(path+".pages", "must be at least 1 for kind \"page-corruption\", got %d", f.Pages)
		}
	}
	return nil
}

// Compile validates the plan against a concrete job size and returns the
// executable faults in declaration order. ranks is the job's rank count;
// image-write targets must fall inside it.
func (p *Plan) Compile(ranks int) ([]Fault, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	out := make([]Fault, len(p.Faults))
	for i, f := range p.Faults {
		anchor, hop, _ := parseAnchor(f.At)
		kind, _ := parseKind(f.Kind)
		if anchor == AtImageWrite && f.Rank >= ranks {
			return nil, fmt.Errorf("faultplan: faults[%d].rank: rank %d out of range for a %d-rank job", i, f.Rank, ranks)
		}
		c := Fault{Anchor: anchor, Hop: hop, N: f.N, Kind: kind, Rank: f.Rank, Pages: f.Pages}
		if f.Time != "" {
			d, _ := time.ParseDuration(f.Time)
			c.Time = vtime.Time(d)
		}
		if f.Delay != "" {
			d, _ := time.ParseDuration(f.Delay)
			c.Delay = vtime.Duration(d)
		}
		out[i] = c
	}
	return out, nil
}

// DefaultCrash is the default scenario's failure: one rank crash 250us
// of virtual time after checkpoint #2 commits, so later triggers may
// commit more checkpoints before it fires.
func DefaultCrash() *Plan {
	return &Plan{Faults: []Spec{{At: "checkpoint-commit", N: 2, Kind: "rank-crash", Delay: "250us"}}}
}

// parseAnchor resolves an anchor spelling, including the optional
// image-write hop qualifier. Bare "image-write" resolves to HopStage —
// the historical meaning, kept as a documented alias.
func parseAnchor(s string) (Anchor, Hop, bool) {
	base, qual, qualified := strings.Cut(s, "/")
	var a Anchor
	switch base {
	case "checkpoint-commit":
		a = AtCheckpointCommit
	case "drain-start":
		a = AtDrainStart
	case "image-write":
		a = AtImageWrite
	case "virtual-time":
		a = AtVirtualTime
	case "restart":
		a = AtRestart
	default:
		return 0, 0, false
	}
	if !qualified {
		return a, HopStage, true
	}
	if a != AtImageWrite {
		return 0, 0, false
	}
	switch qual {
	case "stage":
		return a, HopStage, true
	case "drain":
		return a, HopDrain, true
	}
	return 0, 0, false
}

// AnyDrainHop reports whether any compiled fault targets the
// buffer→PFS drain hop. Such plans are only meaningful when burst-buffer
// staging is enabled, and configuration surfaces reject the combination
// by name otherwise.
func AnyDrainHop(faults []Fault) bool {
	for _, f := range faults {
		if f.Anchor == AtImageWrite && f.Hop == HopDrain {
			return true
		}
	}
	return false
}

func parseKind(s string) (Kind, bool) {
	switch s {
	case "rank-crash":
		return RankCrash, true
	case "torn-write":
		return TornWrite, true
	case "page-corruption":
		return PageCorruption, true
	}
	return 0, false
}
