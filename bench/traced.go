package main

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"runtime/debug"

	"mana/internal/coordinator"
	"mana/internal/fleet"
	"mana/internal/scenario"
)

// jobResult is what one in-process simulation leaves behind.
type jobResult struct {
	fleet.Result
	reportFNV64   string
	reportBytes   int
	attempts      int // Restart calls, including ones that returned ErrRestartFault
	verifiedPages int
	compiledOps   int // ops this job compiled cold; 0 on a compile-cache hit
}

// hooks let a pass alter the config or look at the finished coordinator
// without the phase sequence knowing why. The two that look run inside
// "probe" spans, which no metric counts.
type hooks struct {
	mutate func(*coordinator.Config)
	// finished runs after the last Run and before FinalFingerprint, while
	// no region hash is memoised yet.
	finished func(*coordinator.Coordinator)
	// reported runs after WriteReport and before Release, while the ranks
	// still own their memory.
	reported func(*coordinator.Coordinator, []scenario.Program)
}

type hashWriter struct {
	h hash.Hash64
	n int
}

func (w *hashWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return w.h.Write(p)
}

// runJob is fleet.Engine.Run taken apart at its public seams, one span
// per call: LoadSpec, Programs, Config, coordinator.New, Run,
// {Restart, Run}*, FinalFingerprint (first, since it memoises the hashes
// WriteReport would otherwise pay for), WriteReport, Release. The bytes
// written are exactly what Engine.Run streams, restart notices included.
func runJob(t *tracer, parent, id int, eng *fleet.Engine, sc *coordinator.Scratch, j job, hk hooks) (res jobResult, err error) {
	js := t.begin("job", parent, id)
	defer t.end(js)
	phase := func(name string, f func()) {
		s := t.begin(name, js, id)
		f()
		t.end(s)
	}
	phase("LoadSpec", func() { j.Spec, err = eng.LoadSpec(j.specName) })
	if err != nil {
		return res, err
	}
	compiles := eng.Compiles()
	var progs []scenario.Program
	phase("Programs", func() {
		progs, err = eng.Programs(j.Spec, scenario.Params{Ranks: j.Ranks, Steps: j.Steps, Seed: j.Seed, Group: j.Group})
	})
	if err != nil {
		return res, err
	}
	if eng.Compiles() > compiles {
		for _, p := range progs {
			res.compiledOps += len(p)
		}
	}
	var cfg coordinator.Config
	phase("Config", func() { cfg, err = eng.Config(j.Job) })
	if err != nil {
		return res, err
	}
	if hk.mutate != nil {
		hk.mutate(&cfg)
	}
	cfg.Scratch = sc
	var c *coordinator.Coordinator
	phase("coordinator.New", func() { c = coordinator.New(cfg) })

	w := &hashWriter{h: fnv.New64a()}
	var outcome coordinator.Outcome
	run := func() { phase("Run", func() { outcome, err = c.Run() }) }
	run()
	for err == nil && outcome == coordinator.Failed {
		fmt.Fprintf(w, "injected failure after checkpoint #%d; restarting from last image\n", len(c.Records()))
		for {
			res.attempts++
			if cfg.MaxRestarts > 0 && res.attempts > cfg.MaxRestarts {
				return res, fleet.ErrRestartsExhausted
			}
			phase("Restart", func() { err = c.Restart() })
			if err == nil {
				break
			}
			if !errors.Is(err, coordinator.ErrRestartFault) {
				return res, fmt.Errorf("restart failed: %w", err)
			}
			fmt.Fprintf(w, "restart failed (injected restart fault); falling back to an older image\n")
		}
		run()
	}
	if err != nil {
		return res, fmt.Errorf("run failed: %w", err)
	}
	if hk.finished != nil {
		phase("probe", func() { hk.finished(c) })
	}
	phase("FinalFingerprint", func() { res.FinalFingerprint = c.FinalFingerprint() })
	phase("WriteReport", func() { c.WriteReport(w) })
	res.reportFNV64, res.reportBytes = fmt.Sprintf("%016x", w.h.Sum64()), w.n

	res.Makespan, res.Events, res.RankVisits = c.MaxClock(), c.EventsDispatched(), c.RankVisits()
	res.Checkpoints, res.Restarts = len(c.Records()), len(c.Restarts())
	for _, rec := range c.Records() {
		res.ImageBytes += rec.ImageBytes
		res.StoredBytes += rec.StoredBytes
		res.PFSWait += rec.PFSWait
	}
	for _, rr := range c.Restarts() {
		res.FallbackDepth = max(res.FallbackDepth, rr.FallbackDepth)
		res.LostWork += rr.LostWork
		res.verifiedPages += rr.VerifiedPages
	}
	if hk.reported != nil {
		phase("probe", func() { hk.reported(c, progs) })
	}
	phase("Release", func() { c.Release() })
	return res, nil
}

// pass runs every job of the workload once, in order, on one engine and
// one scratch. Hooks fire on the last job only: the layer probes want one
// coordinator, and on sweep-grid the last cell is a largest one.
func pass(t *tracer, jobs []job, sc *coordinator.Scratch, hk hooks) ([]jobResult, error) {
	// Hand freed pages back to the OS first, so every pass starts from the
	// cold heap a fresh manasim process has and none inherits a warm one.
	debug.FreeOSMemory()
	eng := fleet.NewEngine()
	root := t.begin("workload", -1, -1)
	defer t.end(root)
	results := make([]jobResult, 0, len(jobs))
	for i, j := range jobs {
		jhk := hooks{mutate: hk.mutate}
		if i == len(jobs)-1 {
			jhk = hk
		}
		res, err := runJob(t, root, i, eng, sc, j, jhk)
		if err != nil {
			return nil, fmt.Errorf("job %d (%s, %d ranks): %w", i, j.specName, j.Ranks, err)
		}
		results = append(results, res)
	}
	return results, nil
}

// metrics collects per-layer values by name.
type metrics map[string]float64

// sameReports compares two passes job by job.
func sameReports(a, b []jobResult) error {
	for i := range a {
		if a[i].reportFNV64 != b[i].reportFNV64 || a[i].reportBytes != b[i].reportBytes {
			return fmt.Errorf("job %d: report %s (%d bytes) vs %s (%d bytes)",
				i, a[i].reportFNV64, a[i].reportBytes, b[i].reportFNV64, b[i].reportBytes)
		}
	}
	return nil
}

// traceWorkload is the traced pass: the workload once in-process with
// spans around every phase, the layer probes on its state, and the two
// re-runs the derived metrics need (checkpoints off, islands on). cli is
// the untraced CLI report it must reproduce; wall is the untraced
// wall_s median cli.overhead_s is measured against.
func traceWorkload(w workload, in inputs, seed uint64, cli *report, wall float64, tracePath string) (metrics, []check, error) {
	jobs, err := w.jobs(in, seed)
	if err != nil {
		return nil, nil, err
	}
	m := metrics{}
	var checks []check
	note := func(name string, err error) { checks = append(checks, checked(name, err)) }

	// The scratch is kept: the islands pass reuses it warm.
	t := newTracer()
	sc := coordinator.NewScratch()
	traced, err := pass(t, jobs, sc, hooks{reported: func(c *coordinator.Coordinator, progs []scenario.Program) {
		probeState(m, c, progs)
	}})
	if err != nil {
		return nil, nil, err
	}
	if err := t.write(tracePath); err != nil {
		return nil, nil, err
	}
	note("in-process report bytes equal the CLI's", sameAsCLI(w, traced, cli))

	var phases float64
	for _, s := range t.spans {
		if s.Name != "workload" && s.Name != "job" && s.Name != "probe" {
			phases += s.seconds()
		}
	}
	total := t.spans[0].seconds() - t.seconds("probe")
	m["trace.overhead_ratio"] = total / (total - t.self.Seconds())
	// Everything the jobs counted, summed over the workload (the deepest
	// fallback, not the sum of depths).
	var tot jobResult
	for _, r := range traced {
		tot.compiledOps += r.compiledOps
		tot.Events += r.Events
		tot.RankVisits += r.RankVisits
		tot.Checkpoints += r.Checkpoints
		tot.attempts += r.attempts
		tot.verifiedPages += r.verifiedPages
		tot.FallbackDepth = max(tot.FallbackDepth, r.FallbackDepth)
		tot.reportBytes += r.reportBytes
		tot.Makespan += r.Makespan
		tot.ImageBytes += r.ImageBytes
		tot.StoredBytes += r.StoredBytes
		tot.PFSWait += r.PFSWait
		tot.LostWork += r.LostWork
	}
	m["scenario.load_s"] = t.seconds("LoadSpec")
	m["scenario.compile_s"] = t.seconds("Programs")
	m["scenario.compile_ops"] = float64(tot.compiledOps)
	m["fleet.config_s"] = t.seconds("Config")
	newSec, newBytes, newMallocs := t.total("coordinator.New")
	m["coordinator.new_s"], m["coordinator.new_alloc_mb"], m["coordinator.new_mallocs"] = newSec, float64(newBytes)/(1<<20), float64(newMallocs)
	runSec, _, runMallocs := t.total("Run")
	m["coordinator.run_s"], m["coordinator.run_mallocs"] = runSec, float64(runMallocs)
	m["coordinator.events"], m["coordinator.rank_visits"] = float64(tot.Events), float64(tot.RankVisits)
	m["coordinator.restart_s"] = t.seconds("Restart")
	m["coordinator.restart_attempts"], m["coordinator.verified_pages"] = float64(tot.attempts), float64(tot.verifiedPages)
	m["coordinator.fallback_depth"] = float64(tot.FallbackDepth)
	m["coordinator.fingerprint_s"] = t.seconds("FinalFingerprint")
	m["coordinator.report_s"], m["coordinator.report_bytes"] = t.seconds("WriteReport"), float64(tot.reportBytes)
	m["coordinator.release_s"] = t.seconds("Release")
	m["cli.overhead_s"] = wall - phases
	m["model.makespan_ns"], m["model.lost_work_ns"] = float64(tot.Makespan), float64(tot.LostWork)
	m["model.image_bytes"], m["model.stored_bytes"] = float64(tot.ImageBytes), float64(tot.StoredBytes)
	m["model.pfs_wait_ns"] = float64(tot.PFSWait)

	// Checkpoints and faults off: what dispatch alone costs, and the
	// fault-free final state the paper's transparency property is
	// checked against.
	tn := newTracer()
	bare, err := pass(tn, jobs, coordinator.NewScratch(), hooks{
		mutate:   func(cfg *coordinator.Config) { cfg.Triggers, cfg.Faults, cfg.FailAtCheckpoint = nil, nil, 0 },
		finished: func(c *coordinator.Coordinator) { probeFingerprint(m, c) },
	})
	if err != nil {
		return nil, nil, err
	}
	bareSec := tn.seconds("Run")
	var bareEvents float64
	var fpErr error
	for i, r := range bare {
		bareEvents += float64(r.Events)
		if r.FinalFingerprint != traced[i].FinalFingerprint && fpErr == nil {
			fpErr = fmt.Errorf("job %d: final fingerprint %016x, fault-free and checkpoint-free run %016x",
				i, traced[i].FinalFingerprint, r.FinalFingerprint)
		}
	}
	note("final fingerprint equals the fault-free, checkpoint-free run's", fpErr)
	m["coordinator.run_nockpt_s"], m["coordinator.ns_per_event"] = bareSec, bareSec*1e9/bareEvents
	m["coordinator.ckpt_s"] = runSec - bareSec
	if tot.Checkpoints > 0 {
		m["coordinator.ckpt_ms_per_commit"] = (runSec - bareSec) * 1e3 / float64(tot.Checkpoints)
	}

	// Islands on, on the first pass's scratch: byte identity of the
	// parallel scheduler, its speedup, and how much of a second run's
	// memory the pool serves.
	gets0, hits0 := sc.MemStats()
	tp := newTracer()
	par, err := pass(tp, jobs, sc, hooks{mutate: func(cfg *coordinator.Config) { cfg.Islands, cfg.Workers = 8, poolWidth() }})
	if err != nil {
		return nil, nil, err
	}
	note("islands=8 report bytes equal serial's", sameReports(traced, par))
	gets1, hits1 := sc.MemStats()
	if gets1 > gets0 {
		m["memsim.pool_hit_ratio"] = float64(hits1-hits0) / float64(gets1-gets0)
	}
	parSec := tp.seconds("Run")
	m["coordinator.run_parallel_s"], m["coordinator.parallel_speedup"] = parSec, runSec/parSec

	probeFixed(m)
	if w.grid != nil {
		err := probeFleet(m, w, seed, jobs, cli)
		note("sweep cells agree between pool widths 1 and 2 and with the CLI", err)
	}
	return m, checks, nil
}

// sameAsCLI compares the in-process pass with the CLI's stdout: the
// report hash for a single run, every cell's hash and length for a sweep.
func sameAsCLI(w workload, traced []jobResult, cli *report) error {
	if w.grid == nil {
		if traced[0].reportFNV64 != cli.fnv64 {
			return fmt.Errorf("in-process report %s, CLI report %s", traced[0].reportFNV64, cli.fnv64)
		}
		return nil
	}
	if len(cli.cells) != len(traced) {
		return fmt.Errorf("CLI sweep has %d cells, in-process grid %d", len(cli.cells), len(traced))
	}
	for i, c := range cli.cells {
		if c.ReportFNV64 != traced[i].reportFNV64 || c.ReportBytes != traced[i].reportBytes {
			return fmt.Errorf("cell %d (%s/%d): in-process %s, CLI %s", i, c.Spec, c.Ranks, traced[i].reportFNV64, c.ReportFNV64)
		}
	}
	return nil
}
