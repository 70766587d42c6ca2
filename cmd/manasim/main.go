// Command manasim runs a simulated N-rank MPI job under MANA-style
// transparent checkpointing and prints a deterministic virtual-time
// report.
//
// The workload a job runs is a declarative scenario spec: named phases
// of compute and communication ops, compiled deterministically into one
// op stream per rank. A small library of specs ships in the binary
// (-spec stencil, -spec master-worker, ...); -spec also accepts a path
// to a JSON spec file, so new workloads need no Go. Alternatively -trace
// replays a recorded per-rank op stream verbatim, and -record emits one
// for any job.
//
// The default scenario runs 8 ranks through the "default" halo-exchange
// spec, takes one checkpoint at a fixed virtual time, one while
// point-to-point traffic is in flight and one deliberately requested in
// the middle of a collective (exercising the protocol's deferral path),
// injects a failure after the second checkpoint commits, restarts from
// the last image and runs to completion. Two consecutive invocations
// with the same flags print byte-identical reports. With -spec overlap
// the job instead splits MPI_COMM_WORLD into two staggered
// sub-communicator layouts, so collectives on overlapping communicators
// are concurrently in flight and the second checkpoint exercises the
// dependency-ordered (topological-sort) drain planner.
//
// Failure injection is declarative: -faults names a JSON fault plan (see
// internal/faultplan) whose ordered injections anchor at checkpoint
// commits, drain starts, image writes, virtual times or restart attempts,
// and whose kinds cover rank crashes, torn image writes and silent page
// corruption. Restart verifies every retained image chain and falls back
// across checkpoint generations to the newest verifiable one; the report
// accounts the fallback depth, lost work and verify cost. A plan replaces
// the default scenario's crash and any plan the spec itself declares;
// -no-fail runs without either.
//
// Checkpoint I/O runs through a configurable storage pipeline (see
// internal/storage): a shared parallel filesystem whose aggregate
// bandwidth is contended across all concurrent writers (the default;
// write stragglers emerge from the queueing), optionally fronted by
// per-node burst buffers that stage image payloads and drain them
// asynchronously, and optionally per-page compression of incremental
// delta payloads. -storage selects a built-in profile or JSON document;
// -pfs-bandwidth, -bb-bandwidth, -bb-capacity, -compress and
// -compress-cost overlay individual knobs.
//
// Usage:
//
//	go run ./cmd/manasim [-ranks 8] [-steps 30] [-seed 42] [-kernel unpatched|patched]
//	                     [-virtid sharded|mutex] [-spec <name|file.json>] [-group 4]
//	                     [-trace job.trace] [-record job.trace]
//	                     [-ckpt-at 5ms] [-no-fail] [-faults plan.json]
//	                     [-incremental] [-full-every 4]
//	                     [-storage direct|staged|staged-compressed|file.json]
//	                     [-pfs-bandwidth 16e9] [-bb-bandwidth 8e9] [-bb-capacity 268435456]
//	                     [-compress] [-compress-cost 0.3]
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
// flag's value, each entry parsed and range-checked as a value of that
// flag) runs as a grid of complete simulations on a bounded worker pool
// inside one process, sharing compiled scenario programs and a pool of
// page buffers across runs. The output is a JSON aggregate with one
// cell per run — its parameters, headline metrics and the FNV-64a hash
// plus byte count of the report that run printed — and fleet totals
// (runs, wall time, runs/sec, spec compiles). Cell hashes are
// byte-identical to the equivalent standalone invocation at any
// -sweep-workers setting.
//
// Every run, in either mode, is described the same way: the flags are
// checked against one table (rules: the modes a flag is valid in, what it
// conflicts with, its least value), translated into one fleet.Job, and
// handed to the fleet engine. A flag that would be silently ignored is
// rejected instead, naming the flag and the reason.
//
// -cpuprofile and -memprofile write pprof profiles of the simulator
// itself (host time and heap, not virtual time) to the named files, in
// either mode; they never touch the report or the aggregate.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"mana/internal/faultplan"
	"mana/internal/fleet"
	"mana/internal/kernelsim"
	"mana/internal/scenario"
	"mana/internal/storage"
	"mana/internal/virtid"
	"mana/internal/vtime"
)

// mode is a set of the three ways manasim runs.
type mode uint8

const (
	single mode = 1 << iota // one run compiled from a spec
	replay                  // one run replaying a -trace file
	sweep                   // a -sweep grid

	oneRun     = single | replay
	everywhere = oneRun | sweep
)

// opts holds the parsed command line: one field per flag, which flags
// were given at all (several are only meaningful in combination with
// others) and the run mode they select.
type opts struct {
	set  map[string]bool // flags given on the command line, by name
	mode mode

	ranks, steps int
	seed         uint64
	kernel       string
	virtid       string
	spec         string
	trace        string
	record       string
	group        int
	ckptAt       time.Duration
	noFail       bool
	faults       string
	incremental  bool
	fullEvery    int
	islands      int
	workers      int

	storage      string
	pfsBandwidth float64
	bbBandwidth  float64
	bbCapacity   uint64
	compress     bool
	compressCost float64

	sweep        bool
	sweepSpecs   string
	sweepRanks   string
	sweepCkpt    string
	sweepVirtid  string
	sweepIncr    string
	sweepStorage string
	sweepWorkers int

	cpuProfile string
	memProfile string
}

// defaultFailAfter is the default scenario's crash: a failure injected
// after the second checkpoint commits, unless -no-fail or a fault plan
// says otherwise.
const defaultFailAfter = 2

// newFlagSet registers every manasim flag on a private FlagSet, bound to
// o's fields. The defaults are the default scenario; the golden tests pin
// its report bytes.
func newFlagSet(o *opts) *flag.FlagSet {
	fs := flag.NewFlagSet("manasim", flag.ContinueOnError)
	fs.IntVar(&o.ranks, "ranks", 8, "number of simulated MPI ranks")
	fs.IntVar(&o.steps, "steps", 30, "workload iterations per rank")
	fs.Uint64Var(&o.seed, "seed", 42, "deterministic seed for workload jitter")
	fs.StringVar(&o.kernel, "kernel", "unpatched", "kernel personality: unpatched or patched")
	fs.StringVar(&o.virtid, "virtid", "sharded", "handle-table design the MPI calls are priced as: sharded (lock-free reads) or mutex (MANA baseline)")
	fs.StringVar(&o.spec, "spec", "default", "scenario spec: a library name ("+strings.Join(scenario.Names(), ", ")+") or a JSON spec file")
	fs.StringVar(&o.trace, "trace", "", "replay a recorded per-rank op trace instead of compiling a spec")
	fs.StringVar(&o.record, "record", "", "write the job's per-rank op streams to this trace file before running")
	fs.IntVar(&o.group, "group", 4, "sub-communicator group width, for specs that split communicators (e.g. overlap)")
	fs.DurationVar(&o.ckptAt, "ckpt-at", 5*time.Millisecond, "virtual time of the first checkpoint request")
	fs.BoolVar(&o.noFail, "no-fail", false, "disable the default scenario's failure after checkpoint #2")
	fs.StringVar(&o.faults, "faults", "", "fault-plan JSON file; replaces the default scenario's failure and any plan the spec declares")
	fs.BoolVar(&o.incremental, "incremental", false, "write incremental (dirty-page delta) checkpoint images after the first full one")
	fs.IntVar(&o.fullEvery, "full-every", 4, "with -incremental, write a full image every Nth checkpoint (0 = only the first)")
	fs.IntVar(&o.islands, "islands", 0, "partition ranks across this many event-queue lanes (0 = spec hint or serial); never changes the report")
	fs.IntVar(&o.workers, "workers", 1, "goroutines draining island lanes in parallel windows (1 = serial); never changes the report")
	// An individual storage flag left unset contributes nothing, but a
	// half-specified burst buffer (say, -bb-capacity alone) completes
	// from these defaults, which mirror the model constants.
	fs.StringVar(&o.storage, "storage", "", "checkpoint I/O pipeline: a built-in profile ("+strings.Join(storage.ProfileNames(), ", ")+") or a JSON storage document; overrides any storage block the spec declares")
	fs.Float64Var(&o.pfsBandwidth, "pfs-bandwidth", storage.DefaultPFSBandwidth, "aggregate parallel-filesystem bandwidth in bytes/second, contended across all writers (0 = free I/O)")
	fs.Float64Var(&o.bbBandwidth, "bb-bandwidth", storage.DefaultBBBandwidth, "per-node burst-buffer staging bandwidth in bytes/second (0 = free staging); enables staging")
	fs.Uint64Var(&o.bbCapacity, "bb-capacity", storage.DefaultBBCapacity, "per-node burst-buffer capacity in bytes; staged bytes beyond it write through to the PFS; enables staging")
	fs.BoolVar(&o.compress, "compress", false, "compress incremental delta pages per region class before storing (requires -incremental)")
	fs.Float64Var(&o.compressCost, "compress-cost", storage.DefaultCompressCost, "with -compress: kernel CPU cost per input byte, in ns")
	fs.BoolVar(&o.sweep, "sweep", false, "run a grid of simulations concurrently and print a JSON aggregate instead of one report")
	fs.StringVar(&o.sweepSpecs, "sweep-specs", "", "with -sweep: comma-separated spec names/files for the grid (default: -spec)")
	fs.StringVar(&o.sweepRanks, "sweep-ranks", "", "with -sweep: comma-separated rank counts (default: -ranks)")
	fs.StringVar(&o.sweepCkpt, "sweep-ckpt", "", "with -sweep: comma-separated first-checkpoint times (default: -ckpt-at)")
	fs.StringVar(&o.sweepVirtid, "sweep-virtid", "", "with -sweep: comma-separated virtid implementations (default: -virtid)")
	fs.StringVar(&o.sweepIncr, "sweep-incremental", "", "with -sweep: comma-separated booleans for incremental images (default: -incremental)")
	fs.StringVar(&o.sweepStorage, "sweep-storage", "", "with -sweep: comma-separated storage profiles/files for the grid (default: the single-run storage flags)")
	fs.IntVar(&o.sweepWorkers, "sweep-workers", 0, "with -sweep: concurrent simulations in the pool (0 = GOMAXPROCS)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the simulator to this file (never part of the report)")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a pprof heap profile of the simulator to this file when the run ends (never part of the report)")
	return fs
}

// rule is one flag's row of the validation table. It applies only when
// the flag is given: a default is valid by construction.
type rule struct {
	modes     mode     // run modes the flag is accepted in
	min       any      // least accepted value, typed as the flag's (nil = unbounded)
	conflicts []string // flags it cannot be combined with
	why       string   // reason clause of the conflict message
}

// storageKnobs are the flags that overlay one field of the storage
// pipeline, in the order a rejection names the first one given.
var storageKnobs = []string{"pfs-bandwidth", "bb-bandwidth", "bb-capacity", "compress", "compress-cost"}

// rules is the validation table: one row per registered flag, evaluated
// by check before anything is loaded. What needs the loaded spec or
// storage document is checked after loading (checkSpec, storageSpec).
var rules = map[string]rule{
	"ranks":       {modes: single | sweep, min: 1},
	"steps":       {modes: single | sweep, min: 0},
	"seed":        {modes: everywhere},
	"kernel":      {modes: everywhere},
	"virtid":      {modes: everywhere},
	"spec":        {modes: single | sweep},
	"trace":       {modes: replay},
	"record":      {modes: oneRun},
	"group":       {modes: single, min: 2},
	"ckpt-at":     {modes: everywhere, min: time.Duration(0)},
	"no-fail":     {modes: everywhere, conflicts: []string{"faults"}, why: "run without a plan instead"},
	"faults":      {modes: everywhere},
	"incremental": {modes: everywhere},
	"full-every":  {modes: everywhere, min: 0},
	"islands":     {modes: everywhere, min: 0},
	"workers":     {modes: everywhere, min: 1},

	"storage":       {modes: everywhere},
	"pfs-bandwidth": {modes: everywhere},
	"bb-bandwidth":  {modes: everywhere},
	"bb-capacity":   {modes: everywhere},
	"compress":      {modes: everywhere},
	"compress-cost": {modes: everywhere},

	"sweep":             {modes: everywhere},
	"sweep-specs":       {modes: sweep},
	"sweep-ranks":       {modes: sweep},
	"sweep-ckpt":        {modes: sweep},
	"sweep-virtid":      {modes: sweep},
	"sweep-incremental": {modes: sweep},
	"sweep-storage": {modes: sweep, conflicts: append([]string{"storage"}, storageKnobs...),
		why: "the dimension sets each cell's pipeline"},
	"sweep-workers": {modes: sweep, min: 1},

	"cpuprofile": {modes: everywhere},
	"memprofile": {modes: everywhere},
}

// check evaluates a given flag's row against the command line.
func (o *opts) check(f *flag.Flag) error {
	r := rules[f.Name]
	switch {
	case r.modes&o.mode != 0:
	case r.modes == sweep:
		return fmt.Errorf("-%s has no effect without -sweep", f.Name)
	case o.mode == sweep:
		return fmt.Errorf("-%s cannot be combined with -sweep (it applies to a single run)", f.Name)
	default:
		return fmt.Errorf("-%s cannot be combined with -trace (a trace replays exactly the ops it recorded)", f.Name)
	}
	for _, other := range r.conflicts {
		if o.set[other] {
			return fmt.Errorf("-%s cannot be combined with -%s (%s)", f.Name, other, r.why)
		}
	}
	return checkMin(f, r.min)
}

// checkMin rejects a flag value below its row's minimum.
func checkMin(f *flag.Flag, min any) error {
	v := f.Value.(flag.Getter).Get()
	var below bool
	switch m := min.(type) {
	case int:
		below = v.(int) < m
	case time.Duration:
		below = v.(time.Duration) < m
	}
	if below {
		return fmt.Errorf("-%s must be at least %v (got %v)", f.Name, min, v)
	}
	return nil
}

// parseFlags parses the command line and checks every given flag against
// the rule table.
func parseFlags(args []string) (opts, error) {
	o := opts{set: map[string]bool{}, mode: single}
	fs := newFlagSet(&o)
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	switch {
	case o.sweep:
		o.mode = sweep
	case o.set["trace"]:
		o.mode = replay
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil {
			err = o.check(f)
		}
	})
	return o, err
}

// storageSpec turns the storage flags into the job's storage spec; nil
// leaves the choice to the spec's own block or the direct-to-PFS default.
// -storage overrides a spec-declared block, and the individual knobs
// overlay whichever base is in effect (what they may not do is silently
// reshape a spec-declared block: checkSpec rejects that).
func (o *opts) storageSpec() (*storage.Spec, error) {
	base := &storage.Spec{}
	switch {
	case o.set["storage"]:
		var err error
		if base, err = storage.Load(o.storage); err != nil {
			return nil, fmt.Errorf("-storage: %w", err)
		}
	case o.storageKnob() == "":
		return nil, nil
	}
	if o.set["pfs-bandwidth"] {
		if base.PFS == nil {
			base.PFS = &storage.PFSSpec{}
		}
		base.PFS.AggregateBandwidth = o.pfsBandwidth
	}
	if o.set["bb-bandwidth"] || o.set["bb-capacity"] {
		if base.BurstBuffer == nil {
			base.BurstBuffer = &storage.BurstBufferSpec{Bandwidth: o.bbBandwidth, Capacity: o.bbCapacity}
		} else {
			if o.set["bb-bandwidth"] {
				base.BurstBuffer.Bandwidth = o.bbBandwidth
			}
			if o.set["bb-capacity"] {
				base.BurstBuffer.Capacity = o.bbCapacity
			}
		}
	}
	if o.set["compress"] {
		if o.compress {
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
	if o.set["compress-cost"] {
		if !compresses(base) {
			return nil, fmt.Errorf("-compress-cost has no effect without -compress (or a compression-enabled -storage profile)")
		}
		base.Compression.CostNsPerByte = o.compressCost
	}
	return base, base.Validate()
}

// storageKnob names the first individual storage knob the user passed,
// for rejection messages that must name the offender.
func (o *opts) storageKnob() string {
	for _, name := range storageKnobs {
		if o.set[name] {
			return name
		}
	}
	return ""
}

// compresses reports whether the storage spec enables compression.
func compresses(st *storage.Spec) bool {
	return st != nil && st.Compression != nil && st.Compression.Enabled
}

// job translates the flags into the fleet.Job they describe, all but its
// workload: the base of a -sweep grid, or the one run once oneRun
// attaches its spec or trace. This and fleet.Engine.Config are the whole
// path from a command line to a coordinator configuration.
func (o *opts) job() (fleet.Job, error) {
	j := fleet.Job{
		Ranks: o.ranks, Steps: o.steps, Seed: o.seed, CkptAt: vtime.Time(o.ckptAt),
		Incremental: o.incremental, FullEvery: o.fullEvery, Islands: o.islands, Workers: o.workers,
	}
	switch o.kernel {
	case "unpatched":
		j.Kernel = kernelsim.Unpatched
	case "patched":
		j.Kernel = kernelsim.Patched
	default:
		return j, fmt.Errorf("unknown -kernel %q (want unpatched or patched)", o.kernel)
	}
	var err error
	if j.Virtid, err = virtid.ParseImpl(o.virtid); err != nil {
		return j, fmt.Errorf("-virtid: %w", err)
	}
	if o.set["group"] {
		j.Group = o.group
	}
	switch {
	case o.faults != "":
		data, err := os.ReadFile(o.faults)
		if err != nil {
			return j, fmt.Errorf("-faults: %w", err)
		}
		if j.Faults, err = faultplan.Parse(data); err != nil {
			return j, fmt.Errorf("-faults %s: %w", o.faults, err)
		}
	case !o.noFail:
		j.FailAfter = defaultFailAfter
	}
	j.Storage, err = o.storageSpec()
	return j, err
}

// checkSpec holds the rules that need a loaded spec: flags its own
// declarations would silently override, or that nothing in the run would
// act on. st is the storage spec the flags resolved to, incremental the
// image modes the spec will run under.
func (o *opts) checkSpec(spec *scenario.Spec, st *storage.Spec, incremental []bool) error {
	knob := o.storageKnob()
	switch {
	case spec.Storage != nil && !o.set["storage"] && knob != "":
		return fmt.Errorf("-%s has no effect on spec %q: it declares its own storage block (override with -storage)", knob, spec.Name)
	case spec.Faults != nil && o.set["no-fail"]:
		return fmt.Errorf("-no-fail has no effect on spec %q: it declares its own fault plan (override with -faults)", spec.Name)
	case o.set["group"] && !spec.UsesGroup():
		return fmt.Errorf("-group has no effect on spec %q: it declares no communicator splits", spec.Name)
	case o.workers > 1 && o.islands < 2 && spec.Islands < 2:
		return fmt.Errorf("-workers %d has no effect without -islands of at least 2 (workers drain island lanes in parallel)", o.workers)
	}
	// Only delta pages compress. A -sweep-storage dimension sets each
	// cell's pipeline itself and is not examined here.
	source := fmt.Sprintf("-storage %q", o.storage)
	switch {
	case o.set["sweep-storage"]:
		return nil
	case st == nil:
		st, source = spec.Storage, fmt.Sprintf("spec %q", spec.Name)
	case o.compress:
		source = "-compress"
	}
	if compresses(st) && !slices.Contains(incremental, true) {
		return fmt.Errorf("%s enables compression, which has no effect without -incremental (only delta pages compress)", source)
	}
	return nil
}

// oneRun attaches the single run's workload to the job: the spec -spec
// names, or — a replayed trace carries no policy of its own — the
// programs read from -trace under an empty spec.
func (o *opts) oneRun(eng *fleet.Engine, j fleet.Job) (fleet.Job, error) {
	var err error
	if o.mode == replay {
		j.Spec = &scenario.Spec{}
		j.Programs, err = readTrace(o.trace)
	} else {
		j.Spec, err = eng.LoadSpec(o.spec)
	}
	if err == nil {
		err = o.checkSpec(j.Spec, j.Storage, []bool{o.incremental})
	}
	return j, err
}

// grid expands the -sweep-* lists into the fleet grid over base. Every
// dimension left unset collapses to the single value its single-run flag
// selects, so `-sweep` alone runs a 1-cell grid of the default scenario.
func (o *opts) grid(eng *fleet.Engine, base fleet.Job) (fleet.Sweep, error) {
	sw := fleet.Sweep{Base: base, Storage: splitList(o.sweepStorage), PoolWorkers: o.sweepWorkers}
	var errs [5]error
	sw.Specs, errs[0] = dimension(o.sweepSpecs, "sweep-specs", "spec", o.spec)
	sw.Ranks, errs[1] = dimension(o.sweepRanks, "sweep-ranks", "ranks", o.ranks)
	sw.CkptAt, errs[2] = dimension(o.sweepCkpt, "sweep-ckpt", "ckpt-at", o.ckptAt)
	sw.Virtids, errs[3] = dimension(o.sweepVirtid, "sweep-virtid", "virtid", o.virtid)
	sw.Incremental, errs[4] = dimension(o.sweepIncr, "sweep-incremental", "incremental", o.incremental)
	if err := errors.Join(errs[:]...); err != nil {
		return sw, err
	}
	for _, v := range sw.Virtids {
		if _, err := virtid.ParseImpl(v); err != nil {
			return sw, fmt.Errorf("-sweep-virtid: %w", err)
		}
	}
	for _, name := range sw.Specs {
		spec, err := eng.LoadSpec(name)
		if err == nil {
			err = o.checkSpec(spec, base.Storage, sw.Incremental)
		}
		if err != nil {
			return sw, err
		}
	}
	return sw, nil
}

// dimension expands one -sweep-* list. Each entry is parsed and
// range-checked exactly as a value of the single-run flag it varies (on
// a scratch FlagSet), so the two obey one rule; an empty list is the one
// value that flag holds.
func dimension[T any](list, listFlag, flagName string, value T) ([]T, error) {
	entries := splitList(list)
	if len(entries) == 0 {
		return []T{value}, nil
	}
	f := newFlagSet(new(opts)).Lookup(flagName)
	out := make([]T, 0, len(entries))
	for _, entry := range entries {
		err := f.Value.Set(entry)
		if err == nil {
			err = checkMin(f, rules[flagName].min)
		}
		if err != nil {
			return nil, fmt.Errorf("-%s: entry %q: %v", listFlag, entry, err)
		}
		out = append(out, f.Value.(flag.Getter).Get().(T))
	}
	return out, nil
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

// readTrace reads the -trace file's per-rank op streams.
func readTrace(path string) ([]scenario.Program, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("-trace: %w", err)
	}
	defer f.Close()
	progs, err := scenario.ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("-trace %s: %w", path, err)
	}
	return progs, nil
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
	o, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	code := 2
	if err == nil {
		code, err = execute(&o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "manasim: %v\n", err)
	}
	os.Exit(code)
}

// execute runs what the parsed flags ask for — one scenario or a sweep —
// writing the report or aggregate to w, and returns the process exit
// code: 2 with a usage error, 1 with a run-time failure. Output goes
// through one buffer, not one write per line, and the buffer is flushed
// whatever the outcome, so a failed run's partial output (its restart
// notices) still reaches w.
func execute(o *opts, w io.Writer) (int, error) {
	stop, err := startProfiles(o.cpuProfile, o.memProfile)
	if err != nil {
		return 1, err
	}
	out := bufio.NewWriter(w)
	code, err := simulate(o, out)
	if ferr := out.Flush(); err == nil && ferr != nil {
		code, err = 1, ferr
	}
	if perr := stop(); err == nil && perr != nil {
		code, err = 1, perr
	}
	return code, err
}

// simulate is execute without the profiles: flags to fleet.Job, then the
// job (or the grid over it) through one engine. A sweep prints the
// machine-readable aggregate as indented JSON; a single run streams its
// full deterministic output — restart notices, then the report.
func simulate(o *opts, w io.Writer) (int, error) {
	eng := fleet.NewEngine()
	j, err := o.job()
	if err != nil {
		return 2, err
	}
	if o.mode == sweep {
		sw, err := o.grid(eng, j)
		if err != nil {
			return 2, err
		}
		res, err := eng.RunSweep(sw)
		if err != nil {
			return 1, err
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return 1, err
		}
		return 0, nil
	}
	if j, err = o.oneRun(eng, j); err != nil {
		return 2, err
	}
	cfg, err := eng.Config(j)
	if err != nil {
		return 2, err
	}
	if o.record != "" {
		if err := recordTrace(o.record, cfg.Programs); err != nil {
			return 1, err
		}
	}
	if _, err := eng.Run(cfg, w); err != nil {
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
