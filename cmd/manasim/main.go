// Command manasim runs a simulated N-rank MPI job under MANA-style
// transparent checkpointing and prints a deterministic virtual-time
// report.
//
// The workload a job runs is a declarative scenario spec: named phases
// of compute and communication ops, compiled deterministically into one
// op stream per rank. A small library of specs ships in the binary
// (-spec stencil, -spec master-worker, ...); -spec also accepts a path
// to a JSON spec file, so new workloads need no Go. A spec is the one
// way to name a workload: its splits[].group sets the width of every
// sub-communicator it splits off.
//
// The default scenario runs 8 ranks through the "default" halo-exchange
// spec, takes one checkpoint at a fixed virtual time, one while
// point-to-point traffic is in flight and one deliberately requested in
// the middle of a collective (exercising the protocol's deferral path),
// injects a failure after the second checkpoint commits (the one-fault
// plan faultplan.DefaultCrash), restarts from the last image and runs to
// completion. Two consecutive invocations with the same flags print
// byte-identical reports. With -spec overlap the job instead splits
// MPI_COMM_WORLD into two staggered sub-communicator layouts, so
// collectives on overlapping communicators are concurrently in flight
// and the second checkpoint exercises the dependency-ordered
// (topological-sort) drain planner.
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
// delta payloads. A spec may declare the pipeline in its storage block;
// -storage, a built-in profile name or a JSON storage document, replaces
// that block whole. There is no other way to set it.
//
// Usage:
//
//	go run ./cmd/manasim [-ranks 8] [-steps 30] [-seed 42] [-kernel unpatched|patched]
//	                     [-virtid sharded|mutex] [-spec <name|file.json>]
//	                     [-ckpt-at 5ms] [-no-fail] [-faults plan.json]
//	                     [-incremental] [-full-every 4]
//	                     [-storage direct|staged|staged-compressed|file.json]
//	                     [-cpuprofile cpu.pprof] [-memprofile heap.pprof]
//	go run ./cmd/manasim -sweep [-sweep-specs default,overlap] [-sweep-ranks 4,8]
//	                     [-sweep-ckpt 1ms,5ms] [-sweep-virtid sharded,mutex]
//	                     [-sweep-incremental false,true] [-sweep-storage direct,staged]
//	                     [-sweep-workers 4]
//
// -sweep switches to fleet mode: the cross product of the -sweep-*
// dimension lists (each defaulting to the corresponding single-run
// flag's value, each entry parsed and range-checked as a value of that
// flag) runs as a grid of complete simulations on a bounded worker pool
// inside one process, sharing compiled scenario programs across runs.
// The output is a JSON aggregate with one cell per run — its
// parameters, headline metrics and the FNV-64a hash plus byte count of
// the report that run printed — and fleet totals (runs, wall time,
// runs/sec, spec compiles). Cell hashes are byte-identical to the
// equivalent standalone invocation at any -sweep-workers setting.
//
// Every run, in either mode, is described the same way: the flags are
// checked against one table (rules: the modes a flag is valid in, what it
// conflicts with, its bounds), translated into one fleet.Job, and
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

// mode is a set of the two ways manasim runs.
type mode uint8

const (
	single mode = 1 << iota // one run compiled from a spec
	sweep                   // a -sweep grid

	everywhere = single | sweep
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
	ckptAt       time.Duration
	noFail       bool
	faults       string
	incremental  bool
	fullEvery    int

	storage string

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
	fs.DurationVar(&o.ckptAt, "ckpt-at", 5*time.Millisecond, "virtual time of the first checkpoint request")
	fs.BoolVar(&o.noFail, "no-fail", false, "disable the default scenario's failure after checkpoint #2")
	fs.StringVar(&o.faults, "faults", "", "fault-plan JSON file; replaces the default scenario's failure and any plan the spec declares")
	fs.BoolVar(&o.incremental, "incremental", false, "write incremental (dirty-page delta) checkpoint images after the first full one")
	fs.IntVar(&o.fullEvery, "full-every", 4, "with -incremental, write a full image every Nth checkpoint (0 = only the first)")
	fs.StringVar(&o.storage, "storage", "", "checkpoint I/O pipeline: a built-in profile ("+strings.Join(storage.ProfileNames(), ", ")+") or a JSON storage document; overrides any storage block the spec declares")
	fs.BoolVar(&o.sweep, "sweep", false, "run a grid of simulations concurrently and print a JSON aggregate instead of one report")
	fs.StringVar(&o.sweepSpecs, "sweep-specs", "", "with -sweep: comma-separated spec names/files for the grid (default: -spec)")
	fs.StringVar(&o.sweepRanks, "sweep-ranks", "", "with -sweep: comma-separated rank counts (default: -ranks)")
	fs.StringVar(&o.sweepCkpt, "sweep-ckpt", "", "with -sweep: comma-separated first-checkpoint times (default: -ckpt-at)")
	fs.StringVar(&o.sweepVirtid, "sweep-virtid", "", "with -sweep: comma-separated virtid implementations (default: -virtid)")
	fs.StringVar(&o.sweepIncr, "sweep-incremental", "", "with -sweep: comma-separated booleans for incremental images (default: -incremental)")
	fs.StringVar(&o.sweepStorage, "sweep-storage", "", "with -sweep: comma-separated storage profiles/files for the grid (default: -storage)")
	fs.IntVar(&o.sweepWorkers, "sweep-workers", 0, "with -sweep: concurrent simulations in the pool, at least 1 (unset: GOMAXPROCS)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the simulator to this file (never part of the report)")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a pprof heap profile of the simulator to this file when the run ends (never part of the report)")
	return fs
}

// rule is one flag's row of the validation table. It applies only when
// the flag is given: a default is valid by construction.
type rule struct {
	modes     mode     // run modes the flag is accepted in
	min       any      // least accepted value, typed as the flag's (nil = unbounded)
	max       int      // greatest accepted value of an int flag (0 = unbounded)
	conflicts []string // flags it cannot be combined with
	why       string   // reason clause of the conflict message
}

// rules is the validation table: one row per registered flag, evaluated
// by check before anything is loaded. What needs the loaded spec or
// storage document is checked after loading (checkSpec, grid).
var rules = map[string]rule{
	"ranks":       {modes: everywhere, min: 1, max: scenario.MaxRanks},
	"steps":       {modes: everywhere, min: 0},
	"seed":        {modes: everywhere},
	"kernel":      {modes: everywhere},
	"virtid":      {modes: everywhere},
	"spec":        {modes: everywhere},
	"ckpt-at":     {modes: everywhere, min: time.Duration(0)},
	"no-fail":     {modes: everywhere, conflicts: []string{"faults"}, why: "run without a plan instead"},
	"faults":      {modes: everywhere},
	"incremental": {modes: everywhere},
	"full-every":  {modes: everywhere, min: 0},
	"storage":     {modes: everywhere},

	"sweep":             {modes: everywhere},
	"sweep-specs":       {modes: sweep},
	"sweep-ranks":       {modes: sweep},
	"sweep-ckpt":        {modes: sweep},
	"sweep-virtid":      {modes: sweep},
	"sweep-incremental": {modes: sweep},
	"sweep-storage":     {modes: sweep, conflicts: []string{"storage"}, why: "the dimension sets each cell's pipeline"},
	"sweep-workers":     {modes: sweep, min: 1},

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
	default:
		return fmt.Errorf("-%s cannot be combined with -sweep (it applies to a single run)", f.Name)
	}
	for _, other := range r.conflicts {
		if o.set[other] {
			return fmt.Errorf("-%s cannot be combined with -%s (%s)", f.Name, other, r.why)
		}
	}
	return checkRange(f, r)
}

// checkRange rejects a flag value outside its row's bounds.
func checkRange(f *flag.Flag, r rule) error {
	v := f.Value.(flag.Getter).Get()
	var below bool
	switch m := r.min.(type) {
	case int:
		below = v.(int) < m
	case time.Duration:
		below = v.(time.Duration) < m
	}
	if below {
		return fmt.Errorf("-%s must be at least %v (got %v)", f.Name, r.min, v)
	}
	if n, ok := v.(int); ok && r.max != 0 && n > r.max {
		return fmt.Errorf("-%s must be at most %d (got %d)", f.Name, r.max, n)
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
	if o.sweep {
		o.mode = sweep
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil {
			err = o.check(f)
		}
	})
	return o, err
}

// checkCompression rejects a storage pipeline that compresses when no
// run it applies to writes incremental images: only delta pages
// compress. source names where the pipeline came from.
func checkCompression(source string, st *storage.Spec, incremental []bool) error {
	if st != nil && st.Compression != nil && st.Compression.Enabled && !slices.Contains(incremental, true) {
		return fmt.Errorf("%s enables compression, which has no effect without -incremental (only delta pages compress)", source)
	}
	return nil
}

// checkFullEvery rejects -full-every when no run it applies to writes
// incremental images: every image of such a run is full anyway.
func (o *opts) checkFullEvery(incremental []bool) error {
	switch {
	case !o.set["full-every"] || slices.Contains(incremental, true):
		return nil
	case o.mode == sweep:
		return errors.New("-full-every has no effect: no cell of the sweep is incremental (every image is full)")
	}
	return errors.New("-full-every has no effect without -incremental (every image is full)")
}

// job translates the flags into the fleet.Job they describe, all but its
// workload: the base of a -sweep grid, or the one run once oneRun
// attaches its spec. This and fleet.Engine.Config are the whole
// path from a command line to a coordinator configuration.
func (o *opts) job() (fleet.Job, error) {
	j := fleet.Job{
		Ranks: o.ranks, Steps: o.steps, Seed: o.seed, CkptAt: vtime.Time(o.ckptAt),
		Incremental: o.incremental, FullEvery: o.fullEvery,
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
		j.Crash = true
	}
	if o.set["storage"] {
		if j.Storage, err = storage.Load(o.storage); err != nil {
			return j, fmt.Errorf("-storage: %w", err)
		}
	}
	return j, nil
}

// checkSpec holds the rules that need a loaded spec: flags its own
// declarations would silently override, or that nothing in the run would
// act on. st is the storage spec -storage loaded (nil without it),
// incremental the image modes the spec will run under.
func (o *opts) checkSpec(spec *scenario.Spec, st *storage.Spec, incremental []bool) error {
	switch {
	case spec.Faults != nil && o.set["no-fail"]:
		return fmt.Errorf("-no-fail has no effect on spec %q: it declares its own fault plan (override with -faults)", spec.Name)
	case st != nil:
		return checkCompression(fmt.Sprintf("-storage %q", o.storage), st, incremental)
	case o.set["sweep-storage"]:
		return nil // every cell runs one of the entries grid checked
	}
	return checkCompression(fmt.Sprintf("spec %q", spec.Name), spec.Storage, incremental)
}

// oneRun attaches the single run's workload, the spec -spec names, to
// the job.
func (o *opts) oneRun(eng *fleet.Engine, j fleet.Job) (fleet.Job, error) {
	if err := o.checkFullEvery([]bool{o.incremental}); err != nil {
		return j, err
	}
	var err error
	j.Spec, err = eng.LoadSpec(o.spec)
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
	if err := o.checkFullEvery(sw.Incremental); err != nil {
		return sw, err
	}
	for _, v := range sw.Virtids {
		if _, err := virtid.ParseImpl(v); err != nil {
			return sw, fmt.Errorf("-sweep-virtid: %w", err)
		}
	}
	for _, entry := range sw.Storage {
		st, err := storage.Load(entry)
		if err != nil {
			return sw, fmt.Errorf("-sweep-storage: entry %q: %v", entry, err)
		}
		if err := checkCompression(fmt.Sprintf("-sweep-storage entry %q", entry), st, sw.Incremental); err != nil {
			return sw, err
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
			err = checkRange(f, rules[flagName])
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
