package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mana/internal/coordinator"
	"mana/internal/faultplan"
	"mana/internal/kernelsim"
	"mana/internal/scenario"
	"mana/internal/virtid"
	"mana/internal/vtime"
)

// testJob is the default-shaped job the fleet tests run: the same
// parameters cmd/manasim's defaults select, including the injected
// failure and restart, so the shared paths cross the full protocol.
func testJob(spec *scenario.Spec, incremental bool) Job {
	return Job{
		Spec:        spec,
		Ranks:       8,
		Steps:       12,
		Seed:        42,
		Virtid:      virtid.ImplSharded,
		CkptAt:      vtime.Time(5 * time.Millisecond),
		Crash:       true,
		Incremental: incremental,
		FullEvery:   4,
	}
}

// standalone runs a job's config cold — fresh coordinator, no engine — and returns the exact bytes a standalone manasim run
// prints. The spec is loaded and compiled independently of any engine
// so the reference shares nothing with the code under test.
func standalone(t *testing.T, name string, incremental bool) string {
	t.Helper()
	spec, err := scenario.Load(name)
	if err != nil {
		t.Fatalf("load %q: %v", name, err)
	}
	j := testJob(spec, incremental)
	progs, err := spec.Compile(scenario.Params{Ranks: j.Ranks, Steps: j.Steps, Seed: j.Seed})
	if err != nil {
		t.Fatalf("compile %q: %v", name, err)
	}
	cfg := coordinator.BaseConfig()
	cfg.Ranks = j.Ranks
	cfg.Seed = j.Seed
	cfg.Incremental = j.Incremental
	cfg.FullImageEvery = j.FullEvery
	cfg.Programs = progs
	cfg.Triggers = triggers(spec.Checkpoints, j.CkptAt)
	if j.Crash {
		cfg.Faults = []faultplan.Fault{{Anchor: faultplan.AtCheckpointCommit, N: 2, Kind: faultplan.RankCrash, Delay: 250 * vtime.Microsecond}}
	}

	var out bytes.Buffer
	c := coordinator.New(cfg)
	finish(t, name, c, &out)
	c.WriteReport(&out)
	return out.String()
}

// finish runs c to completion, restarting after every injected failure,
// and writes the notices a standalone run prints before its report.
func finish(t *testing.T, name string, c *coordinator.Coordinator, out *bytes.Buffer) {
	t.Helper()
	outcome, err := c.Run()
	if err != nil {
		t.Fatalf("standalone %q: %v", name, err)
	}
	for outcome == coordinator.Failed {
		fmt.Fprintf(out, "injected failure after checkpoint #%d; restarting from last image\n",
			len(c.Records()))
		if err := c.Restart(); err != nil {
			t.Fatalf("standalone %q restart: %v", name, err)
		}
		outcome, err = c.Run()
		if err != nil {
			t.Fatalf("standalone %q post-restart: %v", name, err)
		}
	}
}

// TestFleetConcurrentByteIdentical is the isolation statement for the
// whole spec library: every library spec — checkpoint, failure and
// restart cells included, plain and incremental — run concurrently on
// one shared engine must print byte for byte what a cold standalone
// run prints, across repeated rounds so runs on a warm compile cache are
// covered too. Run under -race this is also the data-race audit of the
// shared state.
func TestFleetConcurrentByteIdentical(t *testing.T) {
	type cell struct {
		name        string
		incremental bool
		want        string
	}
	var cells []cell
	for _, name := range scenario.Names() {
		for _, incr := range []bool{false, true} {
			cells = append(cells, cell{name, incr, standalone(t, name, incr)})
		}
	}

	e := NewEngine()
	const rounds = 3 // round 1 compiles cold, later rounds hit the cache
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make([]error, len(cells))
		for i := range cells {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c := cells[i]
				spec, err := e.LoadSpec(c.name)
				if err != nil {
					errs[i] = err
					return
				}
				var buf bytes.Buffer
				if _, err := e.RunJob(testJob(spec, c.incremental), &buf); err != nil {
					errs[i] = fmt.Errorf("%s/incr=%v: %w", c.name, c.incremental, err)
					return
				}
				if got := buf.String(); got != c.want {
					errs[i] = fmt.Errorf("%s/incr=%v (round %d): fleet output diverges from standalone\n--- fleet\n%s\n--- standalone\n%s",
						c.name, c.incremental, round, got, c.want)
				}
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	// Every (spec, params) pair compiled exactly once across all rounds
	// and workers — the incremental variants share their spec's key.
	if got, want := e.Compiles(), uint64(len(scenario.Names())); got != want {
		t.Errorf("Compiles() = %d, want %d (one per library spec)", got, want)
	}
}

// TestFleetWarmPoolAllocsLess pins the perf claim behind the compile
// cache: a warm run on a used engine must allocate measurably less than
// the cold first run. Compiled programs are the only thing reused from
// run to run, so the saving is theirs.
func TestFleetWarmPoolAllocsLess(t *testing.T) {
	spec, err := scenario.Load("default")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	job := testJob(spec, false)
	job.Steps = 400
	// TotalAlloc is monotonic, so no GC fencing is needed.
	measure := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := e.RunJob(job, nil); err != nil {
			t.Fatalf("RunJob: %v", err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	cold := measure()
	warm := measure()
	t.Logf("cold run allocated %d bytes, warm run %d bytes (%.2fx)", cold, warm, float64(warm)/float64(cold))
	if warm >= cold*8/10 {
		t.Errorf("warm run allocated %d bytes, want < 80%% of the cold run's %d", warm, cold)
	}
}

// TestFleetThroughputScales mirrors the scheduler's TestParallelSpeedup
// at the run level: with 4 pool workers a batch of independent runs
// must finish at least twice as fast as serially, on hosts with the
// CPUs to show it.
func TestFleetThroughputScales(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet throughput batch skipped in -short mode")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs for a meaningful 4-worker speedup, have %d", runtime.NumCPU())
	}
	spec, err := scenario.Load("default")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	job := testJob(spec, false)
	job.Ranks = 512
	job.Steps = 10
	job.Crash = false
	cfg, err := e.Config(job)
	if err != nil {
		t.Fatal(err)
	}
	batch := func(workers, runs int) time.Duration {
		idx := make(chan int)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range idx {
					if _, err := e.Run(cfg, nil); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		for i := 0; i < runs; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
		return time.Since(start)
	}
	batch(4, 8) // warm the compile cache before timing
	serial := batch(1, 16)
	parallel := batch(4, 16)
	speedup := float64(serial) / float64(parallel)
	t.Logf("serial=%v parallel(4 workers)=%v speedup=%.2fx", serial, parallel, speedup)
	if speedup < 2.0 {
		t.Errorf("4-worker fleet speedup = %.2fx, want >= 2x", speedup)
	}
}

// TestSweepAggregateStableAcrossPoolWidths runs one grid at pool widths
// 1 and 4: every cell — hashes, byte counts, metrics — and the
// deterministic totals must be identical; only wall-clock fields may
// differ.
func TestSweepAggregateStableAcrossPoolWidths(t *testing.T) {
	grid := Sweep{
		Specs:       []string{"default", "overlap"},
		Ranks:       []int{4, 8},
		CkptAt:      []time.Duration{time.Millisecond},
		Virtids:     []string{"sharded", "mutex"},
		Incremental: []bool{false, true},
		Base: Job{
			Steps:     10,
			Seed:      42,
			Crash:     true,
			FullEvery: 4,
		},
	}
	run := func(pool int) *SweepResult {
		g := grid
		g.PoolWorkers = pool
		res, err := NewEngine().RunSweep(g)
		if err != nil {
			t.Fatalf("RunSweep(pool=%d): %v", pool, err)
		}
		return res
	}
	serial := run(1)
	concurrent := run(4)

	if len(serial.Cells) != 16 || len(concurrent.Cells) != 16 {
		t.Fatalf("grid sizes: serial=%d concurrent=%d, want 16", len(serial.Cells), len(concurrent.Cells))
	}
	for i := range serial.Cells {
		a, b := serial.Cells[i], concurrent.Cells[i]
		a.WallMs, b.WallMs = 0, 0
		if a != b {
			t.Errorf("cell %d differs across pool widths:\nserial:     %+v\nconcurrent: %+v", i, a, b)
		}
		if a.ReportBytes == 0 || a.ReportFNV64 == "" {
			t.Errorf("cell %d carries no report fingerprint: %+v", i, a)
		}
		if a.Restarts == 0 {
			t.Errorf("cell %d took no restart despite Crash: %+v", i, a)
		}
	}
	// 2 specs x 2 rank counts = 4 compile keys, each compiled once no
	// matter how many cells or workers shared it.
	if serial.Totals.SpecCompiles != 4 || concurrent.Totals.SpecCompiles != 4 {
		t.Errorf("SpecCompiles: serial=%d concurrent=%d, want 4 each",
			serial.Totals.SpecCompiles, concurrent.Totals.SpecCompiles)
	}
	if serial.Totals.Runs != 16 || concurrent.Totals.Runs != 16 {
		t.Errorf("Totals.Runs: serial=%d concurrent=%d, want 16", serial.Totals.Runs, concurrent.Totals.Runs)
	}
	if concurrent.Totals.RunsPerSec <= 0 {
		t.Errorf("Totals.RunsPerSec = %v, want > 0", concurrent.Totals.RunsPerSec)
	}
}

// TestConcurrentFinalFingerprints finishes two jobs of one engine, then
// fingerprints them from two goroutines at once — a pool of width 2 with
// one job per worker — and holds each report to its standalone run's.
// The final fingerprint lays the markers a rank owes over a scratch copy
// of its state region; under -race this fails if that scratch is shared
// between jobs. The runs finish first because whole concurrent jobs are
// ordered by the formatting they share, which can hide the race.
func TestConcurrentFinalFingerprints(t *testing.T) {
	specs := []string{"default", "stencil"}
	e := NewEngine()
	jobs := make([]*coordinator.Coordinator, len(specs))
	out := make([]bytes.Buffer, len(specs))
	for i, name := range specs {
		spec, err := e.LoadSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := e.Config(testJob(spec, false))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = coordinator.New(cfg)
		finish(t, name, jobs[i], &out[i])
	}
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jobs[i].FinalFingerprint()
			jobs[i].WriteReport(&out[i])
		}()
	}
	wg.Wait()
	for i, name := range specs {
		if want := standalone(t, name, false); out[i].String() != want {
			t.Errorf("%s: concurrently fingerprinted report diverges from standalone\n--- concurrent\n%s\n--- standalone\n%s", name, out[i].String(), want)
		}
	}
}

// TestSweepRejectsEmptyDimensions names each missing dimension.
func TestSweepRejectsEmptyDimensions(t *testing.T) {
	full := Sweep{
		Specs:       []string{"default"},
		Ranks:       []int{4},
		CkptAt:      []time.Duration{time.Millisecond},
		Virtids:     []string{"sharded"},
		Incremental: []bool{false},
	}
	for name, mut := range map[string]func(*Sweep){
		"specs":       func(s *Sweep) { s.Specs = nil },
		"ranks":       func(s *Sweep) { s.Ranks = nil },
		"ckpt-at":     func(s *Sweep) { s.CkptAt = nil },
		"virtid":      func(s *Sweep) { s.Virtids = nil },
		"incremental": func(s *Sweep) { s.Incremental = nil },
	} {
		s := full
		mut(&s)
		if _, err := NewEngine().RunSweep(s); err == nil {
			t.Errorf("RunSweep accepted a sweep with no %s values", name)
		}
	}
	if _, err := NewEngine().RunSweep(Sweep{
		Specs:       []string{"no-such-spec"},
		Ranks:       []int{4},
		CkptAt:      []time.Duration{time.Millisecond},
		Virtids:     []string{"sharded"},
		Incremental: []bool{false},
	}); err == nil {
		t.Error("RunSweep accepted an unknown spec")
	}
}

// TestMismatchedCollectiveFailsRun pins how a job whose ranks disagree
// on a collective ends: rank 0 enters a barrier where the others enter
// an allreduce, and Run returns the coordinator's named error under its
// "run failed: " prefix (the CLI's exit 1) instead of panicking.
func TestMismatchedCollectiveFailsRun(t *testing.T) {
	cfg := coordinator.BaseConfig()
	cfg.Ranks = 4
	cfg.Programs = make([]scenario.Program, cfg.Ranks)
	for id := range cfg.Programs {
		coll := scenario.Op{Kind: scenario.OpAllreduce, Bytes: 8192}
		if id == 0 {
			coll = scenario.Op{Kind: scenario.OpBarrier}
		}
		cfg.Programs[id] = scenario.Program{{Kind: scenario.OpCompute, Dur: vtime.Duration(200+id) * vtime.Microsecond}, coll}
	}
	_, err := NewEngine().Run(cfg, nil)
	if !errors.Is(err, coordinator.ErrCollectiveMismatch) || !strings.HasPrefix(err.Error(), "run failed: ") {
		t.Errorf("Run = %v; want \"run failed: \" wrapping ErrCollectiveMismatch", err)
	}
}

// TestCrashBeforeFirstCommitNamesNoCheckpoint: a fault plan that crashes
// the job before its first checkpoint commits leaves nothing to restart
// from, and Run returns coordinator.ErrNoCheckpoint under its "restart
// failed: " prefix (the CLI's exit 1).
func TestCrashBeforeFirstCommitNamesNoCheckpoint(t *testing.T) {
	e := NewEngine()
	spec, err := e.LoadSpec("default")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := e.Config(Job{Spec: spec, Ranks: 4, Steps: 10, Seed: 42, CkptAt: vtime.Time(5 * vtime.Millisecond),
		Kernel: kernelsim.Unpatched, Virtid: virtid.ImplSharded})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = []faultplan.Fault{{Anchor: faultplan.AtVirtualTime, Time: vtime.Time(vtime.Microsecond), Kind: faultplan.RankCrash}}
	_, err = e.Run(cfg, nil)
	if !errors.Is(err, coordinator.ErrNoCheckpoint) || !strings.HasPrefix(err.Error(), "restart failed: ") {
		t.Errorf("Run = %v; want \"restart failed: \" wrapping ErrNoCheckpoint", err)
	}
}
