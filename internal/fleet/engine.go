// Package fleet executes many independent manasim simulations in one
// process — the simulator as an experiment service rather than a
// one-run CLI.
//
// The Engine is the multi-run core. Each run is fully isolated: a
// coordinator, its ranks, network and queues share no mutable state
// with any other run (the isolation lint in cmd/isolint keeps the
// audit honest — no package-level mutable state exists under
// internal/). What runs DO share is page buffers and compiled inputs:
//
//   - one coordinator.Scratch, whose locked page pool every run's ranks
//     draw full-size page buffers from and return them to when the run
//     retires. A pooled page is zeroed, so a warm run is byte-identical
//     to a cold one. Everything else a run uses — event-queue lanes,
//     per-rank slices, rendezvous instances — it allocates for itself;
//   - a keyed compile cache shares scenario programs: a spec compiled
//     for a given (spec, ranks, steps, seed, group) is compiled once.
//     What it holds is small — one rank-parametric op stream per class
//     of ranks and a slice header per rank, not a copy per rank — and
//     read-only: a rank reads the op under its pc in place, resolving
//     its rank-dependent values by value (scenario.Op.Scalars), and
//     writes nothing back, so any number of concurrent runs can execute
//     the same compiled workload.
//
// Spec compilation itself is serialised under the engine lock:
// scenario.Spec.Compile re-validates its receiver in place (parsed
// durations are cached on the spec), so two goroutines compiling one
// *Spec concurrently would race. The cache makes the serialisation
// cheap — each key compiles exactly once.
package fleet

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"mana/internal/coordinator"
	"mana/internal/faultplan"
	"mana/internal/kernelsim"
	"mana/internal/scenario"
	"mana/internal/storage"
	"mana/internal/virtid"
	"mana/internal/vtime"
)

// ErrRestartsExhausted reports that a run kept failing past its restart
// budget (coordinator.Config.MaxRestarts): every c.Restart() call —
// including attempts that themselves crashed mid-restore — counts
// against the budget, and exhausting it means the fault plan was not
// recoverable within the configured bound.
var ErrRestartsExhausted = errors.New("fleet: restart budget exhausted")

// Job names one simulation the engine can run: the workload spec plus
// the knobs cmd/manasim exposes as flags, mapped verbatim. It is the only
// description of a run there is: the CLI's single run, every sweep cell
// and a replayed trace are all Jobs that Config translates. Note the
// zero Virtid is virtid.ImplMutex (the MANA baseline), not the sharded
// table the CLI defaults to.
type Job struct {
	Spec *scenario.Spec
	// Programs, when non-nil, run as given — a replayed trace — instead
	// of programs compiled from Spec, and fix the rank count; Spec then
	// contributes only its policy blocks (an empty one means none).
	Programs []scenario.Program
	Ranks    int
	Steps    int
	Seed     uint64
	// Group is the sub-communicator width for specs that split
	// communicators; 0 uses the spec's own default.
	Group  int
	Kernel kernelsim.Personality
	Virtid virtid.Impl
	// CkptAt anchors the spec's checkpoint policy in virtual time.
	CkptAt vtime.Time
	// FailAfter is the default scenario's crash: a failure injected the
	// coordinator's FailDelay after this checkpoint commits (0 = never);
	// the engine's Run restarts and completes the job. Any other failure
	// is a fault plan.
	FailAfter int
	// Faults, when non-nil, is a declarative fault plan that replaces
	// FailAfter (and any plan the spec itself declares).
	// It is compiled per job because rank counts vary across sweep
	// cells.
	Faults      *faultplan.Plan
	Incremental bool
	FullEvery   int
	// Storage, when non-nil, declares the checkpoint I/O pipeline for
	// this job (burst-buffer staging, PFS contention, compression) and
	// replaces any storage block the spec itself declares. Nil uses the
	// spec's block, or the direct-to-PFS default when the spec has none.
	Storage *storage.Spec
	// Islands <= 0 applies the spec's lane-count hint (or serial);
	// Workers <= 1 drains serially. Both are pure performance knobs.
	Islands int
	Workers int
}

// Result carries one completed run's headline metrics — everything the
// sweep aggregate reports besides the report hash, which the caller
// computes from the bytes Run streams into its writer.
type Result struct {
	Makespan    vtime.Time
	Events      uint64
	RankVisits  uint64
	Checkpoints int
	Restarts    int
	// ImageBytes totals what every committed checkpoint wrote.
	ImageBytes uint64
	// FinalFingerprint hashes the surviving application state after the
	// run completes; a recoverable fault plan must reproduce the
	// fault-free run's value bit for bit.
	FinalFingerprint uint64
	// FallbackDepth is the deepest generation fallback any restart took
	// (0 = every restart restored the newest committed checkpoint).
	FallbackDepth int
	// LostWork totals the virtual time re-executed across all restarts.
	LostWork vtime.Duration
	// StoredBytes totals what every committed checkpoint shipped to
	// storage after compression (ImageBytes when compression is off).
	StoredBytes uint64
	// PFSWait totals the contention delay checkpoint writes and drains
	// spent queued behind the shared parallel file system.
	PFSWait vtime.Duration
}

// compileKey identifies one compiled program set. The spec is keyed by
// pointer identity: the engine's LoadSpec caches specs by name, so one
// sweep resolves each spec once and every cell over it shares the key.
type compileKey struct {
	spec         *scenario.Spec
	ranks, steps int
	group        int
	seed         uint64
}

// Engine runs simulations with cross-run reuse of page buffers and
// compiled specs. The zero Engine is not usable; call NewEngine. An
// Engine is safe for concurrent use; specs handed to it (via Job.Spec
// or LoadSpec) must not be compiled or mutated outside the engine while
// it runs.
type Engine struct {
	mu       sync.Mutex
	specs    map[string]*scenario.Spec
	compiled map[compileKey][]scenario.Program
	compiles uint64

	// scratch is the page pool every run shares, concurrent runs
	// included.
	scratch *coordinator.Scratch
}

// NewEngine returns an empty engine: the first run on it allocates and
// compiles cold, later runs reuse.
func NewEngine() *Engine {
	return &Engine{
		specs:    make(map[string]*scenario.Spec),
		compiled: make(map[compileKey][]scenario.Program),
		scratch:  coordinator.NewScratch(),
	}
}

// LoadSpec resolves a spec by library name or JSON file path, cached so
// every job over the same name shares one *Spec (and therefore one
// compile-cache key per parameter set).
func (e *Engine) LoadSpec(name string) (*scenario.Spec, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if s, ok := e.specs[name]; ok {
		return s, nil
	}
	var (
		s   *scenario.Spec
		err error
	)
	if scenario.IsLibrary(name) {
		s, err = scenario.Load(name)
	} else {
		s, err = scenario.LoadFile(name)
	}
	if err != nil {
		return nil, err
	}
	e.specs[name] = s
	return s, nil
}

// Programs returns the compiled per-rank programs for (spec, p),
// compiling at most once per key. The returned slice and the op streams
// it references — shared between the ranks of a class as well as
// between runs — are read-only: callers hand them to coordinator.Config
// verbatim and never mutate them.
func (e *Engine) Programs(spec *scenario.Spec, p scenario.Params) ([]scenario.Program, error) {
	key := compileKey{spec: spec, ranks: p.Ranks, steps: p.Steps, group: p.Group, seed: p.Seed}
	e.mu.Lock()
	defer e.mu.Unlock()
	if progs, ok := e.compiled[key]; ok {
		return progs, nil
	}
	progs, err := spec.Compile(p)
	if err != nil {
		return nil, err
	}
	e.compiles++
	e.compiled[key] = progs
	return progs, nil
}

// Compiles returns how many spec compilations the engine has performed —
// the compile cache's miss count. Deterministic for a given job set:
// one per distinct compile key.
func (e *Engine) Compiles() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.compiles
}

// triggers translates a spec's checkpoint policy into coordinator
// triggers, all anchored at the given virtual time. A spec (or a trace,
// which carries no policy) without one gets the classic
// three-checkpoint sequence.
func triggers(cks []scenario.CheckpointSpec, at vtime.Time) []coordinator.Trigger {
	if len(cks) == 0 {
		return []coordinator.Trigger{
			{At: at},
			{At: at, InFlight: true},
			{At: at, MidCollective: true},
		}
	}
	trig := make([]coordinator.Trigger, 0, len(cks))
	for _, ck := range cks {
		tr := coordinator.Trigger{At: at}
		switch ck.Kind {
		case "in-flight":
			tr.InFlight = true
		case "mid-collective":
			tr.MidCollective = true
		case "forming-colls":
			tr.FormingColls = ck.Colls
		}
		trig = append(trig, tr)
	}
	return trig
}

// Config compiles the job (through the cache) and translates it into a
// coordinator configuration. It is the one translation: cmd/manasim's
// single run and every sweep cell go through it, which is why a fleet
// run's report is byte-identical to the standalone run's.
func (e *Engine) Config(j Job) (coordinator.Config, error) {
	if j.Spec == nil {
		return coordinator.Config{}, fmt.Errorf("fleet: job has no spec")
	}
	progs := j.Programs
	if progs == nil {
		var err error
		progs, err = e.Programs(j.Spec, scenario.Params{Ranks: j.Ranks, Steps: j.Steps, Seed: j.Seed, Group: j.Group})
		if err != nil {
			return coordinator.Config{}, err
		}
	}
	cfg := coordinator.BaseConfig()
	cfg.Ranks = len(progs)
	cfg.Personality = j.Kernel
	cfg.Virtid = j.Virtid
	cfg.Seed = j.Seed
	cfg.Incremental = j.Incremental
	cfg.FullImageEvery = j.FullEvery
	cfg.Programs = progs
	cfg.Triggers = triggers(j.Spec.Checkpoints, j.CkptAt)
	cfg.FailAtCheckpoint = j.FailAfter
	plan := j.Faults
	if plan == nil {
		plan = j.Spec.Faults
	}
	if plan != nil {
		faults, err := plan.Compile(cfg.Ranks)
		if err != nil {
			return coordinator.Config{}, err
		}
		cfg.Faults = faults
		// A declarative plan owns failure injection outright; FailAfter
		// is suppressed rather than layered on top.
		cfg.FailAtCheckpoint = 0
		if plan.MaxRestarts > 0 {
			cfg.MaxRestarts = plan.MaxRestarts
		}
	}
	spec := j.Storage
	if spec == nil {
		spec = j.Spec.Storage
	}
	st, err := storage.Compile(spec)
	if err != nil {
		return coordinator.Config{}, err
	}
	cfg.Storage = st
	if faultplan.AnyDrainHop(cfg.Faults) && !cfg.Storage.Staging {
		return coordinator.Config{}, fmt.Errorf("fleet: fault plan anchors on \"image-write/drain\" but the job's storage has no burst buffer; drain faults need staging")
	}
	cfg.Islands = j.Islands
	if cfg.Islands <= 0 && j.Spec.Islands > 0 {
		cfg.Islands = j.Spec.Islands
	}
	cfg.Workers = j.Workers
	return cfg, nil
}

// Run executes one configuration to completion — including any injected
// failure and the restarts that recover from it — streaming the full
// deterministic output (restart notices followed by the report) into w.
// A nil w discards the output. The run draws its page buffers from the
// engine's Scratch and returns the ones it still owns when it completes;
// concurrent Runs are safe and share that Scratch.
func (e *Engine) Run(cfg coordinator.Config, w io.Writer) (Result, error) {
	if w == nil {
		w = io.Discard
	}
	cfg.Scratch = e.scratch
	c := coordinator.New(cfg)
	outcome, err := c.Run()
	if err != nil {
		return Result{}, fmt.Errorf("run failed: %w", err)
	}
	attempts := 0
	for outcome == coordinator.Failed {
		fmt.Fprintf(w, "injected failure after checkpoint #%d; restarting from last image\n",
			len(c.Records()))
		for {
			attempts++
			if cfg.MaxRestarts > 0 && attempts > cfg.MaxRestarts {
				return Result{}, fmt.Errorf("fleet: run still failing after %d restart attempts: %w",
					attempts-1, ErrRestartsExhausted)
			}
			err := c.Restart()
			if err == nil {
				break
			}
			if errors.Is(err, coordinator.ErrRestartFault) {
				// The restore itself crashed; the poisoned image is
				// skipped and the next attempt falls back further.
				fmt.Fprintf(w, "restart failed (injected restart fault); falling back to an older image\n")
				continue
			}
			return Result{}, fmt.Errorf("restart failed: %w", err)
		}
		outcome, err = c.Run()
		if err != nil {
			return Result{}, fmt.Errorf("post-restart run failed: %w", err)
		}
	}
	c.WriteReport(w)
	res := Result{
		Makespan:         c.MaxClock(),
		Events:           c.EventsDispatched(),
		RankVisits:       c.RankVisits(),
		Checkpoints:      len(c.Records()),
		Restarts:         len(c.Restarts()),
		FinalFingerprint: c.FinalFingerprint(),
	}
	for _, rec := range c.Records() {
		res.ImageBytes += rec.ImageBytes
		res.StoredBytes += rec.StoredBytes
		res.PFSWait += rec.PFSWait
	}
	for _, rr := range c.Restarts() {
		if rr.FallbackDepth > res.FallbackDepth {
			res.FallbackDepth = rr.FallbackDepth
		}
		res.LostWork += rr.LostWork
	}
	c.Release()
	return res, nil
}

// RunJob is Config followed by Run.
func (e *Engine) RunJob(j Job, w io.Writer) (Result, error) {
	cfg, err := e.Config(j)
	if err != nil {
		return Result{}, err
	}
	return e.Run(cfg, w)
}
