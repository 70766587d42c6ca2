package coordinator_test

import (
	"fmt"
	"io"
	"reflect"
	"testing"

	"mana/internal/coordinator"
	"mana/internal/fleet"
	"mana/internal/kernelsim"
	"mana/internal/scenario"
	"mana/internal/virtid"
	"mana/internal/vtime"
)

// TestDeferredMarkersMatchEager: a rank writes the state markers of its
// completed ops when its memory is read (rank.Mem, CaptureImage), not as
// each op completes. The reference run reads every rank's memory before
// every event the serial loop dispatches, which writes the markers as
// eagerly as the ops do; the plain run leaves them to the checkpoints
// and the final fingerprint. Both must print the same report, record the
// same checkpoint fingerprints and restarts, and end in the same state:
// for every library spec at 3 and 8 ranks, with full and incremental
// images, with the default crash and without, and once for a job whose
// ranks run past pc 8,191, where marker offsets wrap and a restart
// replays across the wrap.
func TestDeferredMarkersMatchEager(t *testing.T) {
	eng := fleet.NewEngine()
	base := fleet.Job{
		Steps: 12, Seed: 42, Kernel: kernelsim.Unpatched, Virtid: virtid.ImplSharded,
		CkptAt: vtime.Time(vtime.Millisecond),
	}
	var jobs []fleet.Job
	for _, name := range scenario.Names() {
		spec, err := eng.LoadSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, ranks := range []int{3, 8} {
			for _, incremental := range []bool{false, true} {
				for _, crash := range []bool{true, false} {
					j := base
					j.Spec, j.Ranks, j.Crash = spec, ranks, crash
					if incremental {
						j.Incremental, j.FullEvery = true, 2
					}
					jobs = append(jobs, j)
				}
			}
		}
	}
	stencil, err := eng.LoadSpec("stencil")
	if err != nil {
		t.Fatal(err)
	}
	wrap := base
	wrap.Spec, wrap.Ranks, wrap.Steps, wrap.CkptAt = stencil, 8, 2000, vtime.Time(800*vtime.Millisecond)
	wrap.Incremental, wrap.FullEvery, wrap.Crash = true, 2, true
	jobs = append(jobs, wrap)

	var checkpoints, restarts int
	for i, j := range jobs {
		name := fmt.Sprintf("%s ranks=%d steps=%d incremental=%v crash=%v",
			j.Spec.Name, j.Ranks, j.Steps, j.Incremental, j.Crash)
		eager := newRun(t, eng, j)
		eager.OnDispatch(func(vtime.Time) {
			for _, r := range eager.Ranks() {
				r.Mem()
			}
		})
		want := runToEnd(t, eager)
		got := runToEnd(t, newRun(t, eng, j))
		checkpoints += len(got.Records())
		restarts += len(got.Restarts())

		if g, w := got.Report(), want.Report(); g != w {
			t.Errorf("%s: deferred markers print a different report\n--- deferred\n%s--- eager\n%s", name, g, w)
		}
		gr, wr := got.Records(), want.Records()
		if len(gr) != len(wr) {
			t.Errorf("%s: %d checkpoints deferred, %d eager", name, len(gr), len(wr))
		}
		for k := range min(len(gr), len(wr)) {
			if gr[k].Fingerprint != wr[k].Fingerprint {
				t.Errorf("%s: checkpoint #%d fingerprint %016x deferred, %016x eager", name, gr[k].Seq, gr[k].Fingerprint, wr[k].Fingerprint)
			}
		}
		if g, w := got.Restarts(), want.Restarts(); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: restarts differ\ndeferred %+v\neager    %+v", name, g, w)
		}
		if g, w := got.FinalFingerprint(), want.FinalFingerprint(); g != w {
			t.Errorf("%s: final fingerprint %016x deferred, %016x eager", name, g, w)
		}
		if i == len(jobs)-1 {
			if pc := got.Ranks()[0].PC(); pc <= 8191 || len(got.Restarts()) == 0 {
				t.Errorf("%s: rank 0 ends at pc %d after %d restarts, want past pc 8,191 and a restart", name, pc, len(got.Restarts()))
			}
		}
	}
	t.Logf("%d jobs, %d checkpoints, %d restarts", len(jobs), checkpoints, restarts)
	if checkpoints == 0 || restarts == 0 {
		t.Errorf("%d jobs took %d checkpoints and %d restarts, want some of each", len(jobs), checkpoints, restarts)
	}
}

// TestReportLeavesMarkersOwed: the report prints rank 0's region sizes,
// which the owed state markers cannot change, and its final fingerprint,
// which lays them over a copy; so rendering it writes none of them. The
// test keeps rank 0's address space from before the run, against Mem's
// rule and on purpose: the kept space shows what has been written into
// it. The report must leave it as the run did, and a Mem call after the
// report must still have markers to write.
func TestReportLeavesMarkersOwed(t *testing.T) {
	c := coordinator.New(coordinator.DefaultConfig())
	mem := c.Ranks()[0].Mem()
	if out, err := c.Run(); err != nil || out != coordinator.Completed {
		t.Fatalf("Run = %v, %v; want a completed run", out, err)
	}
	ran := mem.Fingerprint()
	c.WriteReport(io.Discard)
	if mem.Fingerprint() != ran {
		t.Error("WriteReport wrote rank 0's owed state markers")
	}
	if c.Ranks()[0].Mem().Fingerprint() == ran {
		t.Error("rank 0 owed no state markers after the run")
	}
}
