package coordinator_test

import (
	"math"
	"slices"
	"testing"

	"mana/internal/coordinator"
	"mana/internal/faultplan"
	"mana/internal/fleet"
	"mana/internal/kernelsim"
	"mana/internal/scenario"
	"mana/internal/storage"
	"mana/internal/virtid"
	"mana/internal/vtime"
)

// TestEveryCutIsSafe checks the paper's safety claim exhaustively at
// small scope: a checkpoint may be requested at any moment, so for every
// library spec at 2, 3, 5 and 8 ranks it requests one at every distinct
// time the fault-free run dispatched an event — a message arrival, a
// collective completion, a rank becoming ready — crashes the job right
// after the first checkpoint commits, and requires the restarted run to
// end in the fault-free run's final state, with full and with
// incremental images. The cuts must include the hard cases: per spec,
// at least one checkpoint taken while a collective was partially
// arrived, one that drained in-flight messages into the image, and on a
// spec that splits communicators one whose drain had to order two
// overlapping collectives.
func TestEveryCutIsSafe(t *testing.T) {
	eng := fleet.NewEngine()
	direct, err := storage.Load("direct")
	if err != nil {
		t.Fatal(err)
	}
	crash := &faultplan.Plan{Faults: []faultplan.Spec{{At: "checkpoint-commit", N: 1, Kind: "rank-crash"}}}
	var runs, restarted int
	for _, name := range scenario.Names() {
		spec, err := eng.LoadSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		var midCollective, drained, overlapped bool
		for _, ranks := range []int{2, 3, 5, 8} {
			job := fleet.Job{
				Spec: spec, Ranks: ranks, Steps: 6, Seed: 42,
				Kernel: kernelsim.Unpatched, Virtid: virtid.ImplSharded,
				// Anchored past the end of the job: the fault-free run
				// takes no checkpoint.
				CkptAt: math.MaxInt64, FullEvery: 4, Storage: direct, Workers: 1,
			}
			var times []vtime.Time
			c := newRun(t, eng, job)
			c.OnDispatch(func(at vtime.Time) { times = append(times, at) })
			want := runToEnd(t, c).FinalFingerprint()
			slices.Sort(times)
			times = slices.Compact(times)

			job.Faults = crash
			for _, at := range times {
				job.CkptAt = at
				for _, incremental := range []bool{false, true} {
					job.Incremental = incremental
					c := runToEnd(t, newRun(t, eng, job))
					runs++
					if len(c.Restarts()) > 0 {
						restarted++
					}
					if got := c.FinalFingerprint(); got != want {
						t.Errorf("%s ranks=%d ckpt-at=%v incremental=%v: final fingerprint %016x, fault-free %016x",
							name, ranks, at, incremental, got, want)
					}
					for _, rec := range c.Records() {
						midCollective = midCollective || rec.MidCollective
						drained = drained || rec.DrainedMsgs > 0
						overlapped = overlapped || rec.OverlapWidth > 1
					}
				}
			}
		}
		if !midCollective || !drained || len(spec.Splits) > 0 && !overlapped {
			t.Errorf("%s: cuts cover mid-collective=%v drained-messages=%v overlapping-collectives=%v, want all",
				name, midCollective, drained, overlapped)
		}
	}
	// Almost every cut commits a checkpoint and crashes after it; the
	// exceptions are requests so late the job ends first.
	if restarted < runs*3/4 {
		t.Errorf("only %d of %d runs crashed and restarted", restarted, runs)
	}
	t.Logf("%d runs, %d restarted", runs, restarted)
}

func newRun(t *testing.T, eng *fleet.Engine, j fleet.Job) *coordinator.Coordinator {
	t.Helper()
	cfg, err := eng.Config(j)
	if err != nil {
		t.Fatal(err)
	}
	return coordinator.New(cfg)
}

// runToEnd runs c, restarting it after each injected failure, until the
// job completes.
func runToEnd(t *testing.T, c *coordinator.Coordinator) *coordinator.Coordinator {
	t.Helper()
	out, err := c.Run()
	for restarts := 0; err == nil && out == coordinator.Failed; restarts++ {
		if restarts == 4 {
			t.Fatal("still failing after 4 restarts")
		}
		if err = c.Restart(); err == nil {
			out, err = c.Run()
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return c
}
