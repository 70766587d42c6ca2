package coordinator

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"mana/internal/scenario"
	"mana/internal/vtime"
)

// groupedPrograms builds the island-scheduler workload: ranks exchange
// in a ring within their topology group (intra-island traffic), group
// leaders exchange with the neighbouring groups' leaders every fourth
// step (cross-island traffic, which must respect the lookahead), and —
// when barriers is set — the whole world synchronises every fifth step
// (global-lane traffic, which bounds every window).
func groupedPrograms(ranks, groupSize, steps int, barriers bool) []scenario.Program {
	nGroups := ranks / groupSize
	return scenario.PerRank(ranks, func(id int) []scenario.Op {
		g := id / groupSize
		base := g * groupSize
		next := base + (id-base+1)%groupSize
		prev := base + (id-base+groupSize-1)%groupSize
		ops := make([]scenario.Op, 0, 4*steps)
		for s := 0; s < steps; s++ {
			ops = append(ops,
				scenario.Op{Kind: scenario.OpCompute, Dur: 2 * vtime.Microsecond},
				scenario.Op{Kind: scenario.OpSend, Peer: next, Bytes: 256, Tag: s},
				scenario.Op{Kind: scenario.OpRecv, Peer: prev, Tag: s},
			)
			if id == base && nGroups > 1 && s%4 == 3 {
				nextLeader := ((g + 1) % nGroups) * groupSize
				prevLeader := ((g + nGroups - 1) % nGroups) * groupSize
				ops = append(ops,
					scenario.Op{Kind: scenario.OpSend, Peer: nextLeader, Bytes: 128, Tag: 1000 + s},
					scenario.Op{Kind: scenario.OpRecv, Peer: prevLeader, Tag: 1000 + s},
				)
			}
			if barriers && s%5 == 4 {
				ops = append(ops, scenario.Op{Kind: scenario.OpBarrier})
			}
		}
		return ops
	})
}

func groupedConfig(ranks, groupSize, islands, workers, steps int, barriers bool) Config {
	cfg := DefaultConfig()
	cfg.Ranks = ranks
	cfg.Triggers = nil
	cfg.Net.GroupSize = groupSize
	cfg.Net.CrossGroupLatency = 10 * vtime.Microsecond
	cfg.Islands = islands
	cfg.Workers = workers
	cfg.Programs = groupedPrograms(ranks, groupSize, steps, barriers)
	return cfg
}

// runToCompletion drives a job through every failure/restart cycle and
// returns its report and final fingerprint.
func runToCompletion(t *testing.T, cfg Config) (string, uint64) {
	t.Helper()
	c := New(cfg)
	for {
		outcome, err := c.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if outcome == Completed {
			return c.Report(), c.FinalFingerprint()
		}
		if err := c.Restart(); err != nil {
			t.Fatalf("Restart: %v", err)
		}
	}
}

// TestIslandPartitionInvariance pins the merge layer at the coordinator
// level: the island count must never change observable output, because
// serial mode assigns sequence numbers from one shared counter in push
// order regardless of which lane each event lands on.
func TestIslandPartitionInvariance(t *testing.T) {
	base := groupedConfig(64, 8, 1, 1, 10, true)
	wantReport, wantFP := runToCompletion(t, base)
	for _, islands := range []int{2, 4, 8, 64} {
		cfg := base
		cfg.Islands = islands
		report, fp := runToCompletion(t, cfg)
		if report != wantReport {
			t.Errorf("islands=%d: report differs from single-island run", islands)
		}
		if fp != wantFP {
			t.Errorf("islands=%d: fingerprint %016x, want %016x", islands, fp, wantFP)
		}
	}

	// The default scenario exercises triggers, checkpoints, failure and
	// restart on top of the partition.
	ckpt := DefaultConfig()
	ckpt.Triggers = []Trigger{{At: vtime.Time(300 * vtime.Microsecond)}}
	ckpt.FailAtCheckpoint = 1
	wantReport, wantFP = runToCompletion(t, ckpt)
	ckpt.Islands = 4
	report, fp := runToCompletion(t, ckpt)
	if report != wantReport || fp != wantFP {
		t.Errorf("default scenario: islands=4 diverged from islands=1")
	}
}

// TestWorkerCountDeterminism is the tentpole invariant: byte-identical
// reports for any worker count, on grouped and flat fabrics, with and
// without global-lane traffic (barriers) interleaved into the windows.
func TestWorkerCountDeterminism(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"grouped", groupedConfig(128, 16, 8, 1, 12, false)},
		{"grouped-barriers", groupedConfig(128, 16, 8, 1, 12, true)},
		{"flat", func() Config {
			cfg := groupedConfig(128, 16, 8, 1, 12, true)
			cfg.Net.GroupSize = 0 // contiguous default partition, base-latency lookahead
			cfg.Net.CrossGroupLatency = 0
			return cfg
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantReport, wantFP := runToCompletion(t, tc.cfg)
			for _, workers := range []int{2, 4, 8} {
				cfg := tc.cfg
				cfg.Workers = workers
				report, fp := runToCompletion(t, cfg)
				if report != wantReport {
					t.Errorf("workers=%d: report differs from serial run", workers)
				}
				if fp != wantFP {
					t.Errorf("workers=%d: fingerprint %016x, want %016x", workers, fp, wantFP)
				}
			}
		})
	}
}

// TestWorkerDeterminismWithCheckpointRestart drives the full protocol —
// trigger, checkpoint, failure, restart, replay — under parallel
// workers. Checkpoint phases run serially by construction; the windows
// cover the post-checkpoint tail and the whole replay, and the reports
// must still match the serial scheduler byte for byte.
func TestWorkerDeterminismWithCheckpointRestart(t *testing.T) {
	base := groupedConfig(64, 8, 8, 1, 10, true)
	base.Triggers = []Trigger{{At: vtime.Time(20 * vtime.Microsecond)}}
	base.FailAtCheckpoint = 1
	base.FailDelay = 100 * vtime.Microsecond
	wantReport, wantFP := runToCompletion(t, base)
	par := base
	par.Workers = 4
	report, fp := runToCompletion(t, par)
	if report != wantReport {
		t.Errorf("workers=4: checkpoint/restart report differs from serial run")
	}
	if fp != wantFP {
		t.Errorf("workers=4: fingerprint %016x, want %016x", fp, wantFP)
	}
}

// TestWorkerDeterminismLibrarySpec runs a library scenario (stencil:
// comm-splits, sub-communicator collectives, p2p halo exchange) under
// parallel workers against the serial scheduler.
func TestWorkerDeterminismLibrarySpec(t *testing.T) {
	mk := func(workers int) Config {
		cfg := DefaultConfig()
		cfg.Ranks = 64
		cfg.Triggers = nil
		cfg.Programs = scenario.MustPrograms("stencil", scenario.Params{Ranks: 64, Steps: 8, Seed: 7, Group: 8})
		cfg.Net.GroupSize = 8
		cfg.Net.CrossGroupLatency = 5 * vtime.Microsecond
		cfg.Islands = 8
		cfg.Workers = workers
		return cfg
	}
	wantReport, wantFP := runToCompletion(t, mk(1))
	report, fp := runToCompletion(t, mk(4))
	if report != wantReport {
		t.Errorf("stencil: workers=4 report differs from serial run")
	}
	if fp != wantFP {
		t.Errorf("stencil: fingerprint %016x, want %016x", fp, wantFP)
	}
}

// TestWindowOwnershipRaceClean pins the ownership rule the per-rank
// state relies on (vtime.Clock's doc comment): clocks, address spaces
// and handle tables carry no lock because only the goroutine driving a
// rank touches them, and the window barrier hands them between the
// workers and the coordinator. Under -race this is the test that would
// catch a second toucher. Library specs run at Islands=8, Workers=4
// through checkpoints (capture reads every rank's state from the
// coordinator goroutine between windows), an injected failure and a
// restart (which rewrites it), and must print the serial run's bytes.
func TestWindowOwnershipRaceClean(t *testing.T) {
	for _, spec := range []string{"stencil", "default"} {
		t.Run(spec, func(t *testing.T) {
			mk := func(islands, workers int) Config {
				cfg := DefaultConfig()
				cfg.Ranks = 64
				cfg.Programs = scenario.MustPrograms(spec, scenario.Params{Ranks: 64, Steps: 12, Seed: 11, Group: 8})
				cfg.Net.GroupSize = 8
				cfg.Net.CrossGroupLatency = 5 * vtime.Microsecond
				cfg.Incremental = true
				cfg.Triggers = []Trigger{
					{At: vtime.Time(50 * vtime.Microsecond)},
					{At: vtime.Time(60 * vtime.Microsecond), InFlight: true},
					{At: vtime.Time(400 * vtime.Microsecond)},
				}
				cfg.FailAtCheckpoint = 2
				cfg.FailDelay = 100 * vtime.Microsecond
				cfg.Islands = islands
				cfg.Workers = workers
				return cfg
			}
			wantReport, wantFP := runToCompletion(t, mk(1, 1))
			if !strings.Contains(wantReport, "restart") {
				t.Fatal("scenario did not restart; the test would not cover Restore")
			}
			report, fp := runToCompletion(t, mk(8, 4))
			if report != wantReport {
				t.Errorf("islands=8 workers=4: report differs from serial run")
			}
			if fp != wantFP {
				t.Errorf("islands=8 workers=4: fingerprint %016x, want %016x", fp, wantFP)
			}
		})
	}
}

// TestParallelSpeedup is the acceptance gate for the tentpole: on a
// 64Ki-rank, 16-island scenario, 4 workers must complete at least 2x
// faster than the serial scheduler. It needs real cores to mean
// anything, so it skips on small machines (the 1-vs-N determinism
// tests above still run everywhere).
func TestParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("65536-rank speedup scenario skipped in -short mode")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs for a meaningful 4-worker speedup, have %d", runtime.NumCPU())
	}
	run := func(workers int) time.Duration {
		cfg := islandBenchConfig(65536, 16, workers, islandBenchSteps)
		c := New(cfg)
		start := time.Now()
		outcome, err := c.Run()
		elapsed := time.Since(start)
		if err != nil || outcome != Completed {
			t.Fatalf("Run(workers=%d) = %v, %v", workers, outcome, err)
		}
		return elapsed
	}
	run(1) // warm the page cache and allocator before timing
	serial := run(1)
	parallel := run(4)
	speedup := float64(serial) / float64(parallel)
	t.Logf("serial=%v parallel(4 workers)=%v speedup=%.2fx", serial, parallel, speedup)
	if speedup < 2.0 {
		t.Errorf("4-worker speedup = %.2fx, want >= 2x", speedup)
	}
}
