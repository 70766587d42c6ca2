package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
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

// workload is one named set of manasim inputs. The CLI argument list the
// timed loop execs and the fleet jobs the traced pass runs in-process are
// both derived from these fields, so the two cannot drift apart. Sizes
// are part of a name's meaning: -reps never changes them, and -smoke
// divides rank counts by smokeDiv without touching anything else.
type workload struct {
	name string
	why  string
	reps int

	spec         string // library spec whose phases the job runs
	ranks, steps int
	// ckpts, when set, replaces the library spec's checkpoint policy in a
	// generated spec file: one trigger per entry.
	ckpts []string
	// ckptAt anchors every trigger (manasim -ckpt-at); 0 keeps the CLI's
	// 5ms default.
	ckptAt      time.Duration
	incremental bool
	storage     string // built-in profile; "" is the direct default
	faults      bool   // generated fault plan; otherwise -no-fail

	grid *grid // sweep-grid only

	// verify checks what the workload is named for against its report.
	verify func(r *report) error
}

// grid is the -sweep cross product, in fleet's enumeration order (specs
// slowest, storage fastest).
type grid struct {
	specs       []string
	ranks       []int
	ckptAt      time.Duration
	virtids     []string
	incremental []bool
	storage     []string
}

func (g *grid) cells() int {
	return len(g.specs) * len(g.ranks) * len(g.virtids) * len(g.incremental) * len(g.storage)
}

const (
	smokeDiv = 16
	// defaultCkptAt and fullEvery are manasim's flag defaults; the
	// in-process jobs must name them because fleet.Job has no defaults.
	defaultCkptAt = 5 * time.Millisecond
	fullEvery     = 4
)

func repeat(n int, kinds ...string) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = kinds[i%len(kinds)]
	}
	return out
}

// poolWidth is the sweep's worker-pool width: two, or one on a one-CPU
// host, so the benchmark never runs more threads than the host has.
func poolWidth() int { return min(2, runtime.NumCPU()) }

var workloads = []workload{
	{
		name: "wide-idle", reps: 10, spec: "default", ranks: 8192, steps: 5,
		why: "many ranks, almost no work: construction, final fingerprint and report rendering dominate; carries the headline RSS",
		verify: func(r *report) error {
			if r.checkpoints != 0 {
				return fmt.Errorf("want 0 checkpoints (job ends before the 5ms anchor), got %d", r.checkpoints)
			}
			return nil
		},
	},
	{
		name: "deep-stencil", reps: 8, spec: "stencil", ranks: 512, steps: 800,
		why: "3M events on few ranks: event loop, netsim p2p, collective rendezvous and vtime queues dominate; construction is noise",
	},
	{
		name: "ckpt-storm", reps: 10, spec: "default", ranks: 2048, steps: 40,
		// manasim anchors every trigger at one -ckpt-at and commits all
		// pending requests back to back, so 48 triggers land in one burst per
		// distinct firing moment, and every commit after a burst's first is an
		// empty delta or a re-captured clean full image. At the default 5ms
		// anchor whether the kinds fire together depends on the seed. The 1us
		// anchor makes it structural: every rank has run its first compute and
		// send, so the plain and in-flight triggers (33) fire at once, and no
		// rank can have reached the first allreduce, so the mid-collective
		// ones (15) fire ~650us later over dirtied pages. 33 = 4*8+1 puts that
		// second burst's first commit off the full-every-4 cadence: it is a
		// delta with payload, and all of the compressor's work here.
		ckpts:  append(append(repeat(17, "at"), repeat(16, "in-flight")...), repeat(15, "mid-collective")...),
		ckptAt: time.Microsecond, incremental: true, storage: "staged-compressed",
		why: "write side of the checkpoint pipeline: 48 commits through capture, dedup, compress, stage and drain; no restarts",
		verify: func(r *report) error {
			if r.checkpoints != 48 || r.storedBytes >= r.imageBytes {
				return fmt.Errorf("want 48 checkpoints with stored < image bytes, got %d with %d stored, %d image",
					r.checkpoints, r.storedBytes, r.imageBytes)
			}
			return nil
		},
	},
	{
		name: "ckpt-recover", reps: 8, spec: "default", ranks: 2048, steps: 40,
		// One plain trigger, then only mid-collective ones: the armed
		// triggers all fire at the first partially-arrived collective, so
		// after the first restart checkpoint #3 always needs a drain and the
		// plan's drain-start fault fires on every seed.
		ckpts: append([]string{"at"}, repeat(11, "mid-collective")...), incremental: true, faults: true,
		why: "read side of the same layers: five restarts with chain verify, overlay, generation fallback and re-execution",
		verify: func(r *report) error {
			if r.restarts < 4 || r.fallbackDepth < 1 {
				return fmt.Errorf("want >=4 restarts and fallback-depth >=1, got %d and %d", r.restarts, r.fallbackDepth)
			}
			return nil
		},
	},
	{
		name: "sweep-grid", reps: 8, steps: 30,
		grid: &grid{
			specs:       []string{"default", "overlap", "stencil", "master-worker", "pipeline"},
			ranks:       []int{64, 256},
			ckptAt:      2 * time.Millisecond,
			virtids:     []string{"sharded", "mutex"},
			incremental: []bool{false, true},
			storage:     []string{"direct", "staged-compressed"},
		},
		why: "80 small runs in one process: per-run fixed cost, compile cache, scratch reuse and pool concurrency set cells/sec",
		verify: func(r *report) error {
			if r.runs != 80 || r.specCompiles != 10 {
				return fmt.Errorf("want 80 cells and 10 spec compiles, got %d and %d", r.runs, r.specCompiles)
			}
			return nil
		},
	},
}

// smoke returns the workload at 1/smokeDiv of its rank counts.
func (w workload) smoke() workload {
	w.ranks /= smokeDiv
	if w.grid != nil {
		g := *w.grid
		g.ranks = make([]int, len(w.grid.ranks))
		for i, r := range w.grid.ranks {
			g.ranks[i] = r / smokeDiv
		}
		w.grid = &g
	}
	return w
}

func (w workload) simulations() int {
	if w.grid != nil {
		return w.grid.cells()
	}
	return 1
}

// inputs names the files generate wrote; an empty faults path means the
// job runs fault-free.
type inputs struct {
	spec   string // library name or generated file
	faults string
}

// recoverPlan is ckpt-recover's fault plan. The seed picks victims, page
// counts and sub-100us offsets only; the anchors are fixed so every seed
// does the same amount of recovery work: a torn write (restart 1, falls
// back one link), a drain-start crash (restart 2), a corrupted full image
// that sends restart 3 to the previous generation, where a restart-time
// fault poisons the chosen link and the retry falls back again, and two
// virtual-time crashes that re-execute 3ms and 6ms of the job.
func recoverPlan(seed uint64, ranks int) *faultplan.Plan {
	rng := vtime.NewRNG(seed)
	us := func(base, spread int) string {
		return (time.Duration(base+rng.Intn(spread)) * time.Microsecond).String()
	}
	return &faultplan.Plan{
		Faults: []faultplan.Spec{
			{At: "image-write", N: 2, Kind: "torn-write", Rank: rng.Intn(ranks)},
			{At: "drain-start", N: 3, Kind: "rank-crash", Delay: us(5, 10)},
			{At: "image-write", N: 11, Kind: "page-corruption", Rank: rng.Intn(ranks), Pages: 1 + rng.Intn(4)},
			{At: "checkpoint-commit", N: 12, Kind: "rank-crash", Delay: us(50, 100)},
			{At: "restart", N: 3, Kind: "rank-crash"},
			{At: "virtual-time", Time: us(8000, 100), Kind: "rank-crash"},
			{At: "virtual-time", Time: us(11000, 100), Kind: "rank-crash"},
		},
		MaxRestarts: 16,
	}
}

// generate writes the workload's spec and fault-plan files into dir. The
// same seed always produces the same bytes.
func (w workload) generate(dir string, seed uint64) (inputs, error) {
	in := inputs{spec: w.spec}
	writeJSON := func(name string, v any) (string, error) {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return "", fmt.Errorf("generate %s: %w", name, err)
		}
		path := filepath.Join(dir, name)
		return path, os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if w.ckpts != nil {
		spec, err := scenario.Load(w.spec)
		if err != nil {
			return in, err
		}
		spec.Name = w.name
		spec.Description = ""
		spec.Checkpoints = nil
		for _, kind := range w.ckpts {
			spec.Checkpoints = append(spec.Checkpoints, scenario.CheckpointSpec{Kind: kind})
		}
		if in.spec, err = writeJSON("spec.json", spec); err != nil {
			return in, err
		}
	}
	if w.faults {
		var err error
		if in.faults, err = writeJSON("faults.json", recoverPlan(seed, w.ranks)); err != nil {
			return in, err
		}
	}
	return in, nil
}

func joinInts(v []int) string {
	s := make([]string, len(v))
	for i, n := range v {
		s[i] = strconv.Itoa(n)
	}
	return strings.Join(s, ",")
}

func joinBools(v []bool) string {
	s := make([]string, len(v))
	for i, b := range v {
		s[i] = strconv.FormatBool(b)
	}
	return strings.Join(s, ",")
}

// args is the manasim command line for the workload.
func (w workload) args(in inputs, seed uint64) []string {
	sd := strconv.FormatUint(seed, 10)
	if g := w.grid; g != nil {
		return []string{"-sweep", "-no-fail", "-steps", strconv.Itoa(w.steps), "-seed", sd,
			"-sweep-specs", strings.Join(g.specs, ","), "-sweep-ranks", joinInts(g.ranks),
			"-sweep-ckpt", g.ckptAt.String(), "-sweep-virtid", strings.Join(g.virtids, ","),
			"-sweep-incremental", joinBools(g.incremental), "-sweep-storage", strings.Join(g.storage, ","),
			"-sweep-workers", strconv.Itoa(poolWidth())}
	}
	a := []string{"-spec", in.spec, "-ranks", strconv.Itoa(w.ranks), "-steps", strconv.Itoa(w.steps), "-seed", sd}
	if w.ckptAt != 0 {
		a = append(a, "-ckpt-at", w.ckptAt.String())
	}
	if w.incremental {
		a = append(a, "-incremental", "-full-every", strconv.Itoa(fullEvery))
	}
	if w.storage != "" {
		a = append(a, "-storage", w.storage)
	}
	if in.faults != "" {
		return append(a, "-faults", in.faults)
	}
	return append(a, "-no-fail")
}

// job is one in-process simulation: the spec name the engine resolves
// plus every other parameter, field for field what args selects.
type job struct {
	specName string
	fleet.Job
}

// jobs lists the simulations the workload runs, sweep cells in grid
// order, mirroring what cmd/manasim builds from args.
func (w workload) jobs(in inputs, seed uint64) ([]job, error) {
	base := fleet.Job{
		Ranks: w.ranks, Steps: w.steps, Seed: seed, Kernel: kernelsim.Unpatched, Virtid: virtid.ImplSharded,
		CkptAt: vtime.Time(defaultCkptAt), Incremental: w.incremental, FullEvery: fullEvery, Workers: 1,
	}
	if w.ckptAt != 0 {
		base.CkptAt = vtime.Time(w.ckptAt)
	}
	g := w.grid
	if g == nil {
		if in.faults != "" {
			data, err := os.ReadFile(in.faults)
			if err != nil {
				return nil, err
			}
			if base.Faults, err = faultplan.Parse(data); err != nil {
				return nil, err
			}
		}
		if w.storage != "" {
			st, err := storage.Load(w.storage)
			if err != nil {
				return nil, err
			}
			base.Storage = st
		}
		return []job{{in.spec, base}}, nil
	}
	stores := make([]*storage.Spec, len(g.storage))
	for i, name := range g.storage {
		var err error
		if stores[i], err = storage.Load(name); err != nil {
			return nil, err
		}
	}
	var out []job
	base.CkptAt = vtime.Time(g.ckptAt)
	for _, spec := range g.specs {
		for _, ranks := range g.ranks {
			for _, vname := range g.virtids {
				impl, err := virtid.ParseImpl(vname)
				if err != nil {
					return nil, err
				}
				for _, incr := range g.incremental {
					for _, st := range stores {
						j := base
						j.Ranks, j.Virtid, j.Incremental, j.Storage = ranks, impl, incr, st
						out = append(out, job{spec, j})
					}
				}
			}
		}
	}
	return out, nil
}

// sweep is the grid as fleet.RunSweep takes it.
func (w workload) sweep(seed uint64, pool int) fleet.Sweep {
	g := w.grid
	return fleet.Sweep{
		Specs: g.specs, Ranks: g.ranks, CkptAt: []time.Duration{g.ckptAt}, Virtids: g.virtids,
		Incremental: g.incremental, Storage: g.storage, PoolWorkers: pool,
		Base: fleet.Job{Steps: w.steps, Seed: seed, Kernel: kernelsim.Unpatched, FullEvery: fullEvery, Workers: 1},
	}
}
