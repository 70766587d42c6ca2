// Command manasim runs a simulated N-rank MPI job under MANA-style
// transparent checkpointing and prints a deterministic virtual-time
// report.
//
// The workload a job runs is a declarative scenario spec: named phases
// of compute and communication ops, compiled deterministically into one
// op stream per rank. A small library of specs ships in the binary
// (-spec stencil, -spec master-worker, ...); -spec also accepts a path
// to a JSON spec file, so new workloads need no Go. The historical
// -workload default|overlap flags remain as thin aliases for the
// library specs of the same names. Alternatively -trace replays a
// recorded per-rank op stream verbatim, and -record emits one for any
// job.
//
// The default scenario runs 8 ranks through the "default" halo-exchange
// spec, takes one checkpoint at a fixed virtual time, one while
// point-to-point traffic is in flight and one deliberately requested in
// the middle of a collective (exercising the protocol's deferral path),
// injects a failure after the second checkpoint commits, restarts from
// the last image and runs to completion. Two consecutive invocations
// with the same flags print byte-identical reports.
//
// Failure injection beyond that legacy single-crash knob is declarative:
// -faults names a JSON fault plan (see internal/faultplan) whose ordered
// injections anchor at checkpoint commits, drain starts, image writes,
// virtual times or restart attempts, and whose kinds cover rank crashes,
// torn image writes and silent page corruption. Restart verifies every
// retained image chain and falls back across checkpoint generations to
// the newest verifiable one; the report accounts the fallback depth,
// lost work and verify cost. A plan replaces -fail-after/-fail-delay/
// -no-fail and any plan the spec itself declares.
//
// Checkpoint I/O runs through a configurable storage pipeline (see
// internal/storage): a shared parallel filesystem whose aggregate
// bandwidth is contended across all concurrent writers (the default),
// optionally fronted by per-node burst buffers that stage image
// payloads and drain them asynchronously, and optionally per-page
// compression of incremental delta payloads. -storage selects a
// built-in profile or JSON document; -pfs-bandwidth, -bb-bandwidth,
// -bb-capacity, -compress and -compress-cost overlay individual knobs;
// -legacy-straggler reinstates the retired flat-bandwidth straggler
// model byte-for-byte.
//
// With -workload overlap (alias for -spec overlap) the job instead
// splits MPI_COMM_WORLD into two staggered sub-communicator layouts and
// runs every step's collectives on them, so collectives on overlapping
// communicators are concurrently in flight; the second checkpoint is
// requested at the first moment at least two collectives are forming,
// exercising the dependency-ordered (topological-sort) drain planner.
//
// Usage:
//
//	go run ./cmd/manasim [-ranks 8] [-steps 30] [-seed 42] [-kernel unpatched|patched]
//	                     [-virtid sharded|mutex] [-spec <name|file.json>] [-group 4]
//	                     [-trace job.trace] [-record job.trace]
//	                     [-workload default|overlap]
//	                     [-ckpt-at 5ms] [-fail-after 2] [-fail-delay 250us] [-no-fail]
//	                     [-faults plan.json]
//	                     [-incremental] [-full-every 4]
//	                     [-storage direct|staged|staged-compressed|file.json]
//	                     [-pfs-bandwidth 16e9] [-bb-bandwidth 8e9] [-bb-capacity 268435456]
//	                     [-compress] [-compress-cost 0.3] [-legacy-straggler]
//	                     [-islands 8] [-workers 4]
//	                     [-cpuprofile cpu.pprof] [-memprofile heap.pprof]
//	go run ./cmd/manasim -sweep [-sweep-specs default,overlap] [-sweep-ranks 4,8]
//	                     [-sweep-ckpt 1ms,5ms] [-sweep-virtid sharded,mutex]
//	                     [-sweep-incremental false,true] [-sweep-storage direct,staged]
//	                     [-sweep-workers 4]
//
// -islands and -workers select the sharded parallel scheduler: ranks
// are partitioned across island event lanes and drained by that many
// goroutines inside conservative lookahead windows. Both are pure
// performance knobs — the report is byte-identical for every setting,
// which the smoke matrix verifies.
//
// -sweep switches to fleet mode: the cross product of the -sweep-*
// dimension lists (each defaulting to the corresponding single-run
// flag's value) runs as a grid of complete simulations on a bounded
// worker pool inside one process, sharing compiled scenario programs
// and pooled scheduler scratch across runs. The output is a JSON
// aggregate with one cell per run — its parameters, headline metrics
// and the FNV-64a hash plus byte count of the report that run printed —
// and fleet totals (runs, wall time, runs/sec, spec compiles). Cell
// hashes are byte-identical to the equivalent standalone invocation at
// any -sweep-workers setting. Flags that only make sense for a single
// run (-record, -trace, -group) are rejected under -sweep, and
// -sweep-* dimension flags are rejected without -sweep.
//
// -cpuprofile and -memprofile write pprof profiles of the simulator
// itself (host time and heap, not virtual time) to the named files, in
// either mode; they never touch the report or the aggregate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"mana/internal/coordinator"
	"mana/internal/faultplan"
	"mana/internal/fleet"
	"mana/internal/kernelsim"
	"mana/internal/scenario"
	"mana/internal/storage"
	"mana/internal/virtid"
	"mana/internal/vtime"
)

// scenarioOpts holds the CLI-selectable parameters of one simulated
// job. The *Set fields record whether the user passed the flag at all —
// several flags are only meaningful in combination with others, and a
// flag that would be silently ignored is rejected instead.
type scenarioOpts struct {
	Ranks     int
	Steps     int
	Seed      uint64
	Kernel    string
	Virtid    string
	Spec      string
	Trace     string
	Record    string
	Workload  string
	GroupSize int
	CkptAt    time.Duration
	FailAfter int
	FailDelay time.Duration
	NoFail    bool
	// Faults names a declarative fault-plan JSON file; it replaces the
	// legacy -fail-after/-fail-delay/-no-fail trio and any plan the spec
	// declares.
	Faults      string
	Incremental bool
	FullEvery   int
	Islands     int
	Workers     int

	// Storage names a built-in storage profile (direct, staged,
	// staged-compressed) or a JSON storage document; it overrides any
	// storage block the spec declares, and the individual storage flags
	// below overlay whichever base is in effect.
	Storage      string
	PFSBandwidth float64
	BBBandwidth  float64
	BBCapacity   uint64
	Compress     bool
	CompressCost float64
	// LegacyStraggler reinstates the retired flat-bandwidth write model
	// with RNG-drawn stragglers, byte-identical to pre-pipeline reports.
	LegacyStraggler bool

	Sweep        bool
	SweepSpecs   string
	SweepRanks   string
	SweepCkpt    string
	SweepVirtid  string
	SweepIncr    string
	SweepStorage string
	// SweepWorkers bounds how many sweep cells run concurrently
	// (0 = GOMAXPROCS); -workers still parallelises within each run.
	SweepWorkers int

	// CPUProfile and MemProfile name files to write pprof profiles of
	// the simulator itself to; valid in single-run and sweep mode.
	CPUProfile string
	MemProfile string

	RanksSet           bool
	StepsSet           bool
	SpecSet            bool
	TraceSet           bool
	WorkloadSet        bool
	GroupSet           bool
	FailAfterSet       bool
	FailDelaySet       bool
	NoFailSet          bool
	IslandsSet         bool
	SweepWorkersSet    bool
	StorageSet         bool
	PFSBandwidthSet    bool
	BBBandwidthSet     bool
	BBCapacitySet      bool
	CompressSet        bool
	CompressCostSet    bool
	LegacyStragglerSet bool
}

// firstStorageFlag names the first individual storage flag the user
// passed, for rejection messages that must name the offender.
func firstStorageFlag(s scenarioOpts) string {
	switch {
	case s.PFSBandwidthSet:
		return "-pfs-bandwidth"
	case s.BBBandwidthSet:
		return "-bb-bandwidth"
	case s.BBCapacitySet:
		return "-bb-capacity"
	case s.CompressSet:
		return "-compress"
	case s.CompressCostSet:
		return "-compress-cost"
	}
	return ""
}

// defaultScenario mirrors the flag defaults; the golden test pins its
// report bytes.
func defaultScenario() scenarioOpts {
	return scenarioOpts{
		Ranks:     8,
		Steps:     30,
		Seed:      42,
		Kernel:    "unpatched",
		Virtid:    "sharded",
		Workload:  "default",
		GroupSize: 4,
		CkptAt:    5 * time.Millisecond,
		FailAfter: 2,
		FailDelay: 250 * time.Microsecond,
		FullEvery: 4,
		Workers:   1,
		// Storage flag defaults mirror the model constants: an individual
		// flag left unset contributes nothing, but a half-specified burst
		// buffer (say, -bb-capacity alone) completes from these.
		PFSBandwidth: storage.DefaultPFSBandwidth,
		BBBandwidth:  storage.DefaultBBBandwidth,
		BBCapacity:   storage.DefaultBBCapacity,
		CompressCost: storage.DefaultCompressCost,
	}
}

// resolveStorage turns the storage flag surface into the job's storage
// spec (nil spec, false legacy = the direct-to-PFS default model).
// Precedence: -legacy-straggler bypasses the pipeline outright and
// tolerates no other storage selection; -storage overrides a
// spec-declared block; individual flags overlay whichever base is in
// effect, except a spec-declared block, which they may not silently
// reshape — overriding that requires -storage. spec is nil when the job
// replays a trace (or when building a sweep base, where per-cell specs
// are resolved by the fleet engine).
func resolveStorage(s scenarioOpts, spec *scenario.Spec) (*storage.Spec, bool, error) {
	flagName := firstStorageFlag(s)
	var specBlock *storage.Spec
	if spec != nil {
		specBlock = spec.Storage
	}
	if s.LegacyStraggler {
		switch {
		case s.StorageSet:
			return nil, false, fmt.Errorf("-legacy-straggler cannot be combined with -storage (the legacy write model has no storage pipeline)")
		case flagName != "":
			return nil, false, fmt.Errorf("-legacy-straggler cannot be combined with %s (the legacy write model has no storage pipeline)", flagName)
		case specBlock != nil:
			return nil, false, fmt.Errorf("-legacy-straggler cannot be combined with spec %q's storage block (the legacy write model has no storage pipeline)", spec.Name)
		}
		return nil, true, nil
	}
	var base *storage.Spec
	switch {
	case s.StorageSet:
		b, err := storage.Load(s.Storage)
		if err != nil {
			return nil, false, fmt.Errorf("-storage: %w", err)
		}
		base = b
	case specBlock != nil:
		if flagName != "" {
			return nil, false, fmt.Errorf("%s has no effect on spec %q: it declares its own storage block (override with -storage)", flagName, spec.Name)
		}
		return specBlock, false, nil
	default:
		if flagName == "" {
			return nil, false, nil
		}
		base = &storage.Spec{}
	}
	if s.PFSBandwidthSet {
		if base.PFS == nil {
			base.PFS = &storage.PFSSpec{}
		}
		base.PFS.AggregateBandwidth = s.PFSBandwidth
	}
	if s.BBBandwidthSet || s.BBCapacitySet {
		if base.BurstBuffer == nil {
			base.BurstBuffer = &storage.BurstBufferSpec{Bandwidth: s.BBBandwidth, Capacity: s.BBCapacity}
		} else {
			if s.BBBandwidthSet {
				base.BurstBuffer.Bandwidth = s.BBBandwidth
			}
			if s.BBCapacitySet {
				base.BurstBuffer.Capacity = s.BBCapacity
			}
		}
	}
	if s.CompressSet {
		if s.Compress {
			if base.Compression == nil {
				base.Compression = &storage.CompressionSpec{}
			}
			base.Compression.Enabled = true
		} else {
			// -compress=false drops a profile's compression block whole;
			// a dangling cost would otherwise fail validation by name.
			base.Compression = nil
			base.Compressibility = nil
		}
	}
	if s.CompressCostSet {
		if base.Compression == nil || !base.Compression.Enabled {
			return nil, false, fmt.Errorf("-compress-cost has no effect without -compress (or a compression-enabled -storage profile)")
		}
		base.Compression.CostNsPerByte = s.CompressCost
	}
	if err := base.Validate(); err != nil {
		return nil, false, err
	}
	return base, false, nil
}

// applyStorage resolves and compiles the storage selection into the
// config, then rejects the combinations that would silently do nothing:
// compression without incremental images (only delta pages compress)
// and drain-hop fault anchors without a burst buffer to drain from.
func applyStorage(cfg *coordinator.Config, s scenarioOpts, spec *scenario.Spec) error {
	stSpec, legacy, err := resolveStorage(s, spec)
	if err != nil {
		return err
	}
	if legacy {
		cfg.Storage.LegacyStraggler = true
	} else {
		st, err := storage.Compile(stSpec)
		if err != nil {
			return err
		}
		cfg.Storage = st
	}
	if cfg.Storage.Compression && !s.Incremental {
		switch {
		case s.CompressSet:
			return fmt.Errorf("-compress has no effect without -incremental (only delta pages compress)")
		case s.StorageSet:
			return fmt.Errorf("-storage %q enables compression, which has no effect without -incremental (only delta pages compress)", s.Storage)
		default:
			return fmt.Errorf("spec %q enables compression, which has no effect without -incremental (only delta pages compress)", spec.Name)
		}
	}
	if faultplan.AnyDrainHop(cfg.Faults) && !cfg.Storage.Staging {
		return fmt.Errorf("fault plan anchors on \"image-write/drain\" but storage declares no burst buffer (drain faults need -storage staged or a burst_buffer block)")
	}
	return nil
}

// resolveSpec turns the flag surface into a scenario spec: -spec names
// a library spec or a JSON file on disk, and -workload is a thin alias
// for the two library specs the flag historically selected.
func resolveSpec(s scenarioOpts) (*scenario.Spec, error) {
	if s.SpecSet {
		if scenario.IsLibrary(s.Spec) {
			return scenario.Load(s.Spec)
		}
		return scenario.LoadFile(s.Spec)
	}
	switch s.Workload {
	case "default", "overlap":
		return scenario.Load(s.Workload)
	default:
		return nil, fmt.Errorf("unknown -workload %q (want default or overlap)", s.Workload)
	}
}

// validateFailFlags rejects the legacy failure-flag combinations that
// would otherwise be silently ignored, each by name.
func validateFailFlags(s scenarioOpts) error {
	if s.FailAfter < 0 {
		return fmt.Errorf("-fail-after must be non-negative (got %d)", s.FailAfter)
	}
	if s.FailDelaySet {
		switch {
		case s.NoFail:
			return fmt.Errorf("-fail-delay has no effect with -no-fail")
		case !s.FailAfterSet:
			return fmt.Errorf("-fail-delay has no effect without -fail-after")
		}
		if s.FailDelay <= 0 {
			return fmt.Errorf("-fail-delay must be positive (got %v)", s.FailDelay)
		}
	}
	if s.FailAfterSet && s.NoFail {
		return fmt.Errorf("-fail-after has no effect with -no-fail")
	}
	return nil
}

// loadFaultPlan reads and validates the -faults plan file, first
// rejecting the legacy failure flags the plan replaces: a flag the plan
// would silently override is an error, not a layered knob.
func loadFaultPlan(s scenarioOpts) (*faultplan.Plan, error) {
	if s.Faults == "" {
		return nil, nil
	}
	switch {
	case s.FailAfterSet:
		return nil, fmt.Errorf("-fail-after cannot be combined with -faults (the plan owns failure injection)")
	case s.FailDelaySet:
		return nil, fmt.Errorf("-fail-delay cannot be combined with -faults (the plan owns failure injection)")
	case s.NoFailSet:
		return nil, fmt.Errorf("-no-fail cannot be combined with -faults (run without a plan instead)")
	}
	data, err := os.ReadFile(s.Faults)
	if err != nil {
		return nil, fmt.Errorf("-faults: %w", err)
	}
	plan, err := faultplan.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("-faults %s: %w", s.Faults, err)
	}
	return plan, nil
}

// applyFaults wires the effective fault source into the config: a
// declarative plan (from -faults or the spec) compiled against the
// job's rank count, or the legacy -fail-after/-fail-delay pair.
func applyFaults(cfg *coordinator.Config, s scenarioOpts, plan *faultplan.Plan) error {
	if plan != nil {
		faults, err := plan.Compile(cfg.Ranks)
		if err != nil {
			return err
		}
		cfg.Faults = faults
		cfg.FailAtCheckpoint = 0
		if plan.MaxRestarts > 0 {
			cfg.MaxRestarts = plan.MaxRestarts
		}
		return nil
	}
	if !s.NoFail {
		cfg.FailAtCheckpoint = s.FailAfter
		cfg.FailDelay = vtime.Duration(s.FailDelay)
	}
	return nil
}

// buildConfig validates the scenario and translates it into a
// coordinator configuration.
func buildConfig(s scenarioOpts) (coordinator.Config, error) {
	var cfg coordinator.Config
	if !s.Sweep {
		// The sweep dimension flags only shape a -sweep grid; reject any
		// that would otherwise be silently ignored.
		switch {
		case s.SweepSpecs != "":
			return cfg, fmt.Errorf("-sweep-specs has no effect without -sweep")
		case s.SweepRanks != "":
			return cfg, fmt.Errorf("-sweep-ranks has no effect without -sweep")
		case s.SweepCkpt != "":
			return cfg, fmt.Errorf("-sweep-ckpt has no effect without -sweep")
		case s.SweepVirtid != "":
			return cfg, fmt.Errorf("-sweep-virtid has no effect without -sweep")
		case s.SweepIncr != "":
			return cfg, fmt.Errorf("-sweep-incremental has no effect without -sweep")
		case s.SweepStorage != "":
			return cfg, fmt.Errorf("-sweep-storage has no effect without -sweep")
		case s.SweepWorkersSet:
			return cfg, fmt.Errorf("-sweep-workers has no effect without -sweep")
		}
	}
	if s.Ranks < 1 {
		return cfg, fmt.Errorf("-ranks must be at least 1 (got %d)", s.Ranks)
	}
	if s.Steps < 0 {
		return cfg, fmt.Errorf("-steps must be non-negative (got %d)", s.Steps)
	}
	var personality kernelsim.Personality
	switch s.Kernel {
	case "unpatched":
		personality = kernelsim.Unpatched
	case "patched":
		personality = kernelsim.Patched
	default:
		return cfg, fmt.Errorf("unknown -kernel %q (want unpatched or patched)", s.Kernel)
	}
	impl, err := virtid.ParseImpl(s.Virtid)
	if err != nil {
		return cfg, fmt.Errorf("-virtid: %w", err)
	}
	if s.FullEvery < 0 {
		return cfg, fmt.Errorf("-full-every must be non-negative (got %d)", s.FullEvery)
	}
	if s.Islands < 0 {
		return cfg, fmt.Errorf("-islands must be non-negative (got %d)", s.Islands)
	}
	if s.Workers < 1 {
		return cfg, fmt.Errorf("-workers must be at least 1 (got %d)", s.Workers)
	}
	plan, err := loadFaultPlan(s)
	if err != nil {
		return cfg, err
	}
	if err := validateFailFlags(s); err != nil {
		return cfg, err
	}

	cfg = coordinator.DefaultConfig()
	cfg.Ranks = s.Ranks
	cfg.Personality = personality
	cfg.Virtid = impl
	cfg.Seed = s.Seed
	cfg.Incremental = s.Incremental
	cfg.FullImageEvery = s.FullEvery
	cfg.Islands = s.Islands
	cfg.Workers = s.Workers

	if s.TraceSet {
		// A trace fixes the job completely; flags that shape a compiled
		// spec would be silently ignored, so reject them.
		switch {
		case s.SpecSet:
			return cfg, fmt.Errorf("-trace and -spec are mutually exclusive: a trace replays exactly the ops it recorded")
		case s.WorkloadSet:
			return cfg, fmt.Errorf("-trace and -workload are mutually exclusive: a trace replays exactly the ops it recorded")
		case s.GroupSet:
			return cfg, fmt.Errorf("-group has no effect when replaying a trace")
		case s.RanksSet:
			return cfg, fmt.Errorf("-ranks has no effect when replaying a trace (the trace fixes the rank count)")
		case s.StepsSet:
			return cfg, fmt.Errorf("-steps has no effect when replaying a trace")
		}
		f, err := os.Open(s.Trace)
		if err != nil {
			return cfg, fmt.Errorf("-trace: %w", err)
		}
		defer f.Close()
		progs, err := scenario.ReadTrace(f)
		if err != nil {
			return cfg, fmt.Errorf("-trace %s: %w", s.Trace, err)
		}
		cfg.Ranks = len(progs)
		cfg.Programs = progs
		cfg.Triggers = fleet.Triggers(nil, vtime.Time(s.CkptAt))
		if err := applyFaults(&cfg, s, plan); err != nil {
			return cfg, err
		}
		if err := applyStorage(&cfg, s, nil); err != nil {
			return cfg, err
		}
		if s.Workers > 1 && cfg.Islands <= 1 {
			return cfg, fmt.Errorf("-workers %d has no effect without -islands of at least 2 (workers drain island lanes in parallel)", s.Workers)
		}
		return cfg, nil
	}

	if s.SpecSet && s.WorkloadSet {
		return cfg, fmt.Errorf("-spec and -workload are mutually exclusive (-workload is an alias for the library spec of the same name)")
	}
	spec, err := resolveSpec(s)
	if err != nil {
		return cfg, err
	}
	group := 0
	if s.GroupSet {
		if !spec.UsesGroup() {
			return cfg, fmt.Errorf("-group has no effect on spec %q: it declares no communicator splits", spec.Name)
		}
		if s.GroupSize < 2 {
			return cfg, fmt.Errorf("-group must be at least 2 (got %d)", s.GroupSize)
		}
		group = s.GroupSize
	}
	progs, err := spec.Compile(scenario.Params{Ranks: s.Ranks, Steps: s.Steps, Seed: s.Seed, Group: group})
	if err != nil {
		return cfg, err
	}
	cfg.Programs = progs
	cfg.Triggers = fleet.Triggers(spec.Checkpoints, vtime.Time(s.CkptAt))
	if plan == nil && spec.Faults != nil {
		// The spec's own plan takes over from the legacy flags; a legacy
		// flag passed explicitly would be silently ignored, so reject it
		// by name (-faults overrides the spec's plan outright).
		switch {
		case s.FailAfterSet:
			return cfg, fmt.Errorf("-fail-after has no effect on spec %q: it declares its own fault plan (override with -faults)", spec.Name)
		case s.FailDelaySet:
			return cfg, fmt.Errorf("-fail-delay has no effect on spec %q: it declares its own fault plan (override with -faults)", spec.Name)
		case s.NoFailSet:
			return cfg, fmt.Errorf("-no-fail has no effect on spec %q: it declares its own fault plan (override with -faults)", spec.Name)
		}
		plan = spec.Faults
	}
	if err := applyFaults(&cfg, s, plan); err != nil {
		return cfg, err
	}
	if err := applyStorage(&cfg, s, spec); err != nil {
		return cfg, err
	}
	if !s.IslandsSet && spec.Islands > 0 {
		// The spec's lane-count hint applies unless the CLI overrides it.
		// Like the flag, it is purely a performance knob: the partition
		// never changes the report.
		cfg.Islands = spec.Islands
	}
	if s.Workers > 1 && cfg.Islands <= 1 {
		return cfg, fmt.Errorf("-workers %d has no effect without -islands of at least 2 (workers drain island lanes in parallel)", s.Workers)
	}
	return cfg, nil
}

// runScenario executes the job — including any injected failure and the
// restarts that recover from it — streaming the full deterministic
// output (restart notices followed by the coordinator's report) into w.
// It is a single-run front door to the fleet engine; -sweep drives the
// same engine over a grid.
func runScenario(cfg coordinator.Config, w io.Writer) error {
	_, err := fleet.NewEngine().Run(cfg, w)
	return err
}

// splitList splits a comma-separated flag value, trimming spaces and
// dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// buildSweep validates the sweep flag surface and translates it into a
// fleet grid. Every dimension flag left unset collapses to the single
// value the equivalent single-run flag selects, so `-sweep` alone runs
// a 1-cell grid of the default scenario.
func buildSweep(s scenarioOpts) (fleet.Sweep, error) {
	var sw fleet.Sweep
	// These flags only make sense for exactly one run; a sweep would
	// silently ignore (-record: overwrite per cell) them, so reject.
	switch {
	case s.TraceSet:
		return sw, fmt.Errorf("-trace cannot be combined with -sweep (a sweep compiles its cells from specs)")
	case s.Record != "":
		return sw, fmt.Errorf("-record cannot be combined with -sweep (record a single run instead)")
	case s.GroupSet:
		return sw, fmt.Errorf("-group cannot be combined with -sweep (it applies to a single run)")
	}
	if s.SpecSet && s.WorkloadSet {
		return sw, fmt.Errorf("-spec and -workload are mutually exclusive (-workload is an alias for the library spec of the same name)")
	}
	if s.Steps < 0 {
		return sw, fmt.Errorf("-steps must be non-negative (got %d)", s.Steps)
	}
	var personality kernelsim.Personality
	switch s.Kernel {
	case "unpatched":
		personality = kernelsim.Unpatched
	case "patched":
		personality = kernelsim.Patched
	default:
		return sw, fmt.Errorf("unknown -kernel %q (want unpatched or patched)", s.Kernel)
	}
	plan, err := loadFaultPlan(s)
	if err != nil {
		return sw, err
	}
	if err := validateFailFlags(s); err != nil {
		return sw, err
	}

	// Dimensions: each defaults to the single value its single-run
	// counterpart flag selects.
	if s.SweepSpecs != "" {
		sw.Specs = splitList(s.SweepSpecs)
	} else if s.SpecSet {
		sw.Specs = []string{s.Spec}
	} else {
		switch s.Workload {
		case "default", "overlap":
			sw.Specs = []string{s.Workload}
		default:
			return sw, fmt.Errorf("unknown -workload %q (want default or overlap)", s.Workload)
		}
	}
	if s.SweepRanks != "" {
		for _, v := range splitList(s.SweepRanks) {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return sw, fmt.Errorf("-sweep-ranks: %q is not a positive rank count", v)
			}
			sw.Ranks = append(sw.Ranks, n)
		}
	} else {
		if s.Ranks < 1 {
			return sw, fmt.Errorf("-ranks must be at least 1 (got %d)", s.Ranks)
		}
		sw.Ranks = []int{s.Ranks}
	}
	if s.SweepCkpt != "" {
		for _, v := range splitList(s.SweepCkpt) {
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return sw, fmt.Errorf("-sweep-ckpt: %q is not a positive duration", v)
			}
			sw.CkptAt = append(sw.CkptAt, d)
		}
	} else {
		sw.CkptAt = []time.Duration{s.CkptAt}
	}
	if s.SweepVirtid != "" {
		sw.Virtids = splitList(s.SweepVirtid)
	} else {
		sw.Virtids = []string{s.Virtid}
	}
	for _, v := range sw.Virtids {
		if _, err := virtid.ParseImpl(v); err != nil {
			return sw, fmt.Errorf("-sweep-virtid: %w", err)
		}
	}
	if s.SweepIncr != "" {
		for _, v := range splitList(s.SweepIncr) {
			b, err := strconv.ParseBool(v)
			if err != nil {
				return sw, fmt.Errorf("-sweep-incremental: %q is not a boolean", v)
			}
			sw.Incremental = append(sw.Incremental, b)
		}
	} else {
		sw.Incremental = []bool{s.Incremental}
	}
	var (
		baseStorage *storage.Spec
		baseLegacy  bool
	)
	if s.SweepStorage != "" {
		// The dimension sets each cell's pipeline; single-point storage
		// flags would be dead weight, so reject them by name.
		switch {
		case s.LegacyStragglerSet:
			return sw, fmt.Errorf("-legacy-straggler has no effect with -sweep-storage (the dimension sets each cell's pipeline)")
		case s.StorageSet:
			return sw, fmt.Errorf("-storage has no effect with -sweep-storage (the dimension sets each cell's pipeline)")
		case firstStorageFlag(s) != "":
			return sw, fmt.Errorf("%s has no effect with -sweep-storage (the dimension sets each cell's pipeline)", firstStorageFlag(s))
		}
		sw.Storage = splitList(s.SweepStorage)
	} else {
		baseStorage, baseLegacy, err = resolveStorage(s, nil)
		if err != nil {
			return sw, err
		}
		if s.CompressSet && s.Compress {
			anyIncr := false
			for _, b := range sw.Incremental {
				anyIncr = anyIncr || b
			}
			if !anyIncr {
				return sw, fmt.Errorf("-compress has no effect without -incremental (only delta pages compress)")
			}
		}
	}

	if s.FullEvery < 0 {
		return sw, fmt.Errorf("-full-every must be non-negative (got %d)", s.FullEvery)
	}
	if s.Islands < 0 {
		return sw, fmt.Errorf("-islands must be non-negative (got %d)", s.Islands)
	}
	if s.Workers < 1 {
		return sw, fmt.Errorf("-workers must be at least 1 (got %d)", s.Workers)
	}
	if s.SweepWorkersSet && s.SweepWorkers < 1 {
		return sw, fmt.Errorf("-sweep-workers must be at least 1 (got %d)", s.SweepWorkers)
	}
	sw.Base = fleet.Job{
		Steps:           s.Steps,
		Seed:            s.Seed,
		Kernel:          personality,
		Faults:          plan,
		FullEvery:       s.FullEvery,
		Islands:         s.Islands,
		Workers:         s.Workers,
		Storage:         baseStorage,
		LegacyStraggler: baseLegacy,
	}
	if plan == nil && !s.NoFail {
		sw.Base.FailAfter = s.FailAfter
		sw.Base.FailDelay = vtime.Duration(s.FailDelay)
	}
	sw.PoolWorkers = s.SweepWorkers
	return sw, nil
}

// runSweep executes the grid on one shared engine and writes the
// machine-readable aggregate as indented JSON.
func runSweep(sw fleet.Sweep, w io.Writer) error {
	res, err := fleet.NewEngine().RunSweep(sw)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// recordTrace writes the job's per-rank op streams as a replayable
// trace file.
func recordTrace(path string, progs []scenario.Program) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("-record: %w", err)
	}
	if err := scenario.WriteTrace(f, progs); err != nil {
		f.Close()
		return fmt.Errorf("-record %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("-record %s: %w", path, err)
	}
	return nil
}

func main() {
	def := defaultScenario()
	var s scenarioOpts
	flag.IntVar(&s.Ranks, "ranks", def.Ranks, "number of simulated MPI ranks")
	flag.IntVar(&s.Steps, "steps", def.Steps, "workload iterations per rank")
	flag.Uint64Var(&s.Seed, "seed", def.Seed, "deterministic seed for workload jitter and ckpt stragglers")
	flag.StringVar(&s.Kernel, "kernel", def.Kernel, "kernel personality: unpatched or patched")
	flag.StringVar(&s.Virtid, "virtid", def.Virtid, "handle-virtualisation table: sharded (lock-free reads) or mutex (MANA baseline)")
	flag.StringVar(&s.Spec, "spec", "", "scenario spec: a library name ("+strings.Join(scenario.Names(), ", ")+") or a JSON spec file")
	flag.StringVar(&s.Trace, "trace", "", "replay a recorded per-rank op trace instead of compiling a spec")
	flag.StringVar(&s.Record, "record", "", "write the job's per-rank op streams to this trace file before running")
	flag.StringVar(&s.Workload, "workload", def.Workload, "alias for -spec limited to the classic specs: default (halo exchange, world collectives) or overlap (staggered sub-communicator collectives)")
	flag.IntVar(&s.GroupSize, "group", def.GroupSize, "sub-communicator group width, for specs that split communicators (e.g. overlap)")
	flag.DurationVar(&s.CkptAt, "ckpt-at", def.CkptAt, "virtual time of the first checkpoint request")
	flag.IntVar(&s.FailAfter, "fail-after", def.FailAfter, "inject a failure after this checkpoint commits (0 = never)")
	flag.DurationVar(&s.FailDelay, "fail-delay", def.FailDelay, "with -fail-after: virtual-time delay between the commit and the injected failure")
	flag.BoolVar(&s.NoFail, "no-fail", def.NoFail, "disable the failure/restart scenario")
	flag.StringVar(&s.Faults, "faults", "", "fault-plan JSON file; replaces -fail-after/-fail-delay/-no-fail and any plan the spec declares")
	flag.BoolVar(&s.Incremental, "incremental", def.Incremental, "write incremental (dirty-page delta) checkpoint images after the first full one")
	flag.IntVar(&s.FullEvery, "full-every", def.FullEvery, "with -incremental, write a full image every Nth checkpoint (0 = only the first)")
	flag.IntVar(&s.Islands, "islands", def.Islands, "partition ranks across this many event-queue lanes (0 = spec hint or serial); never changes the report")
	flag.IntVar(&s.Workers, "workers", def.Workers, "goroutines draining island lanes in parallel windows (1 = serial); never changes the report")
	flag.StringVar(&s.Storage, "storage", "", "checkpoint I/O pipeline: a built-in profile ("+strings.Join(storage.ProfileNames(), ", ")+") or a JSON storage document; overrides any storage block the spec declares")
	flag.Float64Var(&s.PFSBandwidth, "pfs-bandwidth", def.PFSBandwidth, "aggregate parallel-filesystem bandwidth in bytes/second, contended across all writers (0 = free I/O)")
	flag.Float64Var(&s.BBBandwidth, "bb-bandwidth", def.BBBandwidth, "per-node burst-buffer staging bandwidth in bytes/second (0 = free staging); enables staging")
	flag.Uint64Var(&s.BBCapacity, "bb-capacity", def.BBCapacity, "per-node burst-buffer capacity in bytes; staged bytes beyond it write through to the PFS; enables staging")
	flag.BoolVar(&s.Compress, "compress", false, "compress incremental delta pages per region class before storing (requires -incremental)")
	flag.Float64Var(&s.CompressCost, "compress-cost", def.CompressCost, "with -compress: kernel CPU cost per input byte, in ns")
	flag.BoolVar(&s.LegacyStraggler, "legacy-straggler", false, "reinstate the retired flat-bandwidth write model with RNG-drawn stragglers (byte-identical to pre-pipeline reports)")
	flag.BoolVar(&s.Sweep, "sweep", false, "run a grid of simulations concurrently and print a JSON aggregate instead of one report")
	flag.StringVar(&s.SweepSpecs, "sweep-specs", "", "with -sweep: comma-separated spec names/files for the grid (default: the single -spec/-workload)")
	flag.StringVar(&s.SweepRanks, "sweep-ranks", "", "with -sweep: comma-separated rank counts (default: -ranks)")
	flag.StringVar(&s.SweepCkpt, "sweep-ckpt", "", "with -sweep: comma-separated first-checkpoint times (default: -ckpt-at)")
	flag.StringVar(&s.SweepVirtid, "sweep-virtid", "", "with -sweep: comma-separated virtid implementations (default: -virtid)")
	flag.StringVar(&s.SweepIncr, "sweep-incremental", "", "with -sweep: comma-separated booleans for incremental images (default: -incremental)")
	flag.StringVar(&s.SweepStorage, "sweep-storage", "", "with -sweep: comma-separated storage profiles/files for the grid (default: the single-run storage flags)")
	flag.IntVar(&s.SweepWorkers, "sweep-workers", 0, "with -sweep: concurrent simulations in the pool (0 = GOMAXPROCS)")
	flag.StringVar(&s.CPUProfile, "cpuprofile", "", "write a pprof CPU profile of the simulator to this file (never part of the report)")
	flag.StringVar(&s.MemProfile, "memprofile", "", "write a pprof heap profile of the simulator to this file when the run ends (never part of the report)")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "ranks":
			s.RanksSet = true
		case "steps":
			s.StepsSet = true
		case "spec":
			s.SpecSet = true
		case "trace":
			s.TraceSet = true
		case "workload":
			s.WorkloadSet = true
		case "group":
			s.GroupSet = true
		case "fail-after":
			s.FailAfterSet = true
		case "fail-delay":
			s.FailDelaySet = true
		case "no-fail":
			s.NoFailSet = true
		case "islands":
			s.IslandsSet = true
		case "sweep-workers":
			s.SweepWorkersSet = true
		case "storage":
			s.StorageSet = true
		case "pfs-bandwidth":
			s.PFSBandwidthSet = true
		case "bb-bandwidth":
			s.BBBandwidthSet = true
		case "bb-capacity":
			s.BBCapacitySet = true
		case "compress":
			s.CompressSet = true
		case "compress-cost":
			s.CompressCostSet = true
		case "legacy-straggler":
			s.LegacyStragglerSet = true
		}
	})

	code, err := execute(s, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "manasim: %v\n", err)
	}
	os.Exit(code)
}

// execute runs what the parsed flags ask for — one scenario or a sweep —
// writing the report or aggregate to w, and returns the process exit
// code: 2 with a usage error, 1 with a run-time failure.
func execute(s scenarioOpts, w io.Writer) (int, error) {
	stop, err := startProfiles(s.CPUProfile, s.MemProfile)
	if err != nil {
		return 1, err
	}
	code, err := simulate(s, w)
	if perr := stop(); err == nil && perr != nil {
		code, err = 1, perr
	}
	return code, err
}

// simulate is execute without the profiles: build the sweep or the
// single job from the flags and run it.
func simulate(s scenarioOpts, w io.Writer) (int, error) {
	if s.Sweep {
		sw, err := buildSweep(s)
		if err != nil {
			return 2, err
		}
		if err := runSweep(sw, w); err != nil {
			return 1, err
		}
		return 0, nil
	}
	cfg, err := buildConfig(s)
	if err != nil {
		return 2, err
	}
	if s.Record != "" {
		if err := recordTrace(s.Record, cfg.Programs); err != nil {
			return 1, err
		}
	}
	if err := runScenario(cfg, w); err != nil {
		return 1, err
	}
	return 0, nil
}

// startProfiles begins a CPU profile into cpuPath and returns the
// function that ends it and writes a heap profile into memPath; an
// empty path skips that profile. Profiles go to the named files only —
// nothing about them reaches the report, which stays byte-identical
// with and without them.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("-cpuprofile %s: %w", cpuPath, err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("-cpuprofile %s: %w", cpuPath, err)
			}
		}
		if memPath == "" {
			return nil
		}
		mem, err := os.Create(memPath)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		runtime.GC() // a heap profile describes the last completed collection
		if err := pprof.WriteHeapProfile(mem); err != nil {
			mem.Close()
			return fmt.Errorf("-memprofile %s: %w", memPath, err)
		}
		if err := mem.Close(); err != nil {
			return fmt.Errorf("-memprofile %s: %w", memPath, err)
		}
		return nil
	}, nil
}
