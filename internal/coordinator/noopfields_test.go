package coordinator

import (
	"bytes"
	"testing"

	"mana/internal/faultplan"
	"mana/internal/scenario"
	"mana/internal/vtime"
)

// The tests in this file pin the contract of Config.Islands,
// Config.Workers and Config.FailAtCheckpoint: they configure nothing, so
// no value of any of them may change a report byte or a final
// fingerprint. bench/traced.go sets them on its later traced passes.

// groupedPrograms builds a grouped workload: ranks exchange in a ring
// within their group, group leaders exchange with the neighbouring
// groups' leaders every fourth step, and, when barriers is set, the whole
// world synchronises every fifth step.
func groupedPrograms(ranks, groupSize, steps int, barriers bool) []scenario.Program {
	nGroups := ranks / groupSize
	return perRank(ranks, func(id int) []scenario.Op {
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

// TestIslandPartitionInvariance: no Islands value changes the output,
// on a grouped workload and on the default scenario with a checkpoint,
// a failure and a restart.
func TestIslandPartitionInvariance(t *testing.T) {
	base := groupedConfig(64, 8, 1, 1, 10, true)
	wantReport, wantFP := runToCompletion(t, base)
	for _, islands := range []int{0, 2, 4, 8, 64} {
		cfg := base
		cfg.Islands = islands
		report, fp := runToCompletion(t, cfg)
		if report != wantReport {
			t.Errorf("islands=%d: report differs from islands=1", islands)
		}
		if fp != wantFP {
			t.Errorf("islands=%d: fingerprint %016x, want %016x", islands, fp, wantFP)
		}
	}

	ckpt := DefaultConfig()
	ckpt.Triggers = []Trigger{{At: vtime.Time(300 * vtime.Microsecond)}}
	ckpt.Faults = crashAfter(1, 250*vtime.Microsecond)
	wantReport, wantFP = runToCompletion(t, ckpt)
	ckpt.Islands = 4
	report, fp := runToCompletion(t, ckpt)
	if report != wantReport || fp != wantFP {
		t.Errorf("default scenario: islands=4 diverged from islands=0")
	}
}

// TestWorkerCountDeterminism: no Workers value changes the output of a
// grouped workload, with and without world barriers.
func TestWorkerCountDeterminism(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"grouped", groupedConfig(128, 16, 8, 1, 12, false)},
		{"grouped-barriers", groupedConfig(128, 16, 8, 1, 12, true)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantReport, wantFP := runToCompletion(t, tc.cfg)
			for _, workers := range []int{0, 2, 4, 8} {
				cfg := tc.cfg
				cfg.Workers = workers
				report, fp := runToCompletion(t, cfg)
				if report != wantReport {
					t.Errorf("workers=%d: report differs from workers=1", workers)
				}
				if fp != wantFP {
					t.Errorf("workers=%d: fingerprint %016x, want %016x", workers, fp, wantFP)
				}
			}
		})
	}
}

// TestWorkerDeterminismWithCheckpointRestart drives the full protocol
// (trigger, checkpoint, failure, restart, replay) at Workers=4 against
// Workers=1.
func TestWorkerDeterminismWithCheckpointRestart(t *testing.T) {
	base := groupedConfig(64, 8, 8, 1, 10, true)
	base.Triggers = []Trigger{{At: vtime.Time(20 * vtime.Microsecond)}}
	base.Faults = crashAfter(1, 100*vtime.Microsecond)
	wantReport, wantFP := runToCompletion(t, base)
	par := base
	par.Workers = 4
	report, fp := runToCompletion(t, par)
	if report != wantReport {
		t.Errorf("workers=4: checkpoint/restart report differs from workers=1")
	}
	if fp != wantFP {
		t.Errorf("workers=4: fingerprint %016x, want %016x", fp, wantFP)
	}
}

// TestWorkerDeterminismLibrarySpec runs a library scenario (stencil:
// comm-splits, sub-communicator collectives, p2p halo exchange) at
// Islands=8 with Workers 1 and 4.
func TestWorkerDeterminismLibrarySpec(t *testing.T) {
	mk := func(workers int) Config {
		cfg := DefaultConfig()
		cfg.Ranks = 64
		cfg.Triggers = nil
		cfg.Programs = mustPrograms("stencil", scenario.Params{Ranks: 64, Steps: 8, Seed: 7})
		cfg.Islands = 8
		cfg.Workers = workers
		return cfg
	}
	wantReport, wantFP := runToCompletion(t, mk(1))
	report, fp := runToCompletion(t, mk(4))
	if report != wantReport {
		t.Errorf("stencil: workers=4 report differs from workers=1")
	}
	if fp != wantFP {
		t.Errorf("stencil: fingerprint %016x, want %016x", fp, wantFP)
	}
}

// TestFaultPlanDeterministicAcrossWorkers: the multi-failure recovery
// path renders byte-identical reports at Islands=0/Workers=1 and at
// Islands=8/Workers=4.
func TestFaultPlanDeterministicAcrossWorkers(t *testing.T) {
	plan := []faultplan.Fault{
		{Anchor: faultplan.AtDrainStart, N: 3, Kind: faultplan.RankCrash, Delay: 10 * vtime.Microsecond},
		{Anchor: faultplan.AtImageWrite, N: 3, Kind: faultplan.TornWrite},
		{Anchor: faultplan.AtRestart, N: 2, Kind: faultplan.RankCrash},
	}
	run := func(islands, workers int) (string, uint64) {
		cfg := faultConfig()
		cfg.Faults = plan
		cfg.Islands = islands
		cfg.Workers = workers
		c := New(cfg)
		completeWithRecovery(t, c)
		var buf bytes.Buffer
		c.WriteReport(&buf)
		return buf.String(), c.FinalFingerprint()
	}
	serial, serialFP := run(0, 1)
	other, otherFP := run(8, 4)
	if serial != other {
		t.Errorf("multi-failure report differs between islands=0/workers=1 and islands=8/workers=4:\n--- 0/1\n%s\n--- 8/4\n%s",
			serial, other)
	}
	if serialFP != otherFP {
		t.Errorf("fingerprints differ: 0/1 %016x, 8/4 %016x", serialFP, otherFP)
	}
}

// TestFailAtCheckpointIsInert: FailAtCheckpoint injects no failure into a
// fault-free job and adds none to a job that already crashes.
func TestFailAtCheckpointIsInert(t *testing.T) {
	for _, faults := range [][]faultplan.Fault{nil, crashAfter(1, 250*vtime.Microsecond)} {
		cfg := faultConfig()
		cfg.Faults = faults
		wantReport, wantFP := runToCompletion(t, cfg)
		cfg.FailAtCheckpoint = 2
		if report, fp := runToCompletion(t, cfg); report != wantReport || fp != wantFP {
			t.Errorf("faults=%v: FailAtCheckpoint=2 changed the run:\n--- with\n%s\n--- without\n%s", faults, report, wantReport)
		}
	}
}
