package coordinator_test

import (
	"errors"
	"flag"
	"math"
	"slices"
	"testing"

	"mana/internal/ckptstore"
	"mana/internal/coordinator"
	"mana/internal/faultplan"
	"mana/internal/fleet"
	"mana/internal/kernelsim"
	"mana/internal/scenario"
	"mana/internal/storage"
	"mana/internal/virtid"
	"mana/internal/vtime"
)

// wideCuts widens TestEveryCutIsSafe's scope from ranks {2, 3, 5, 8} and
// 6 steps to ranks {2, 3, 5, 8, 13} and 10 steps; `make cuts` sets it.
var wideCuts = flag.Bool("cuts.wide", false, "TestEveryCutIsSafe: ranks {2,3,5,8,13} and 10 steps")

// TestEveryCutIsSafe checks the paper's safety claim exhaustively at
// small scope: a checkpoint may be requested at any moment, so for every
// library spec at 2, 3, 5 and 8 ranks (-cuts.wide adds 13, and longer
// jobs) it requests one at every distinct time the fault-free run
// dispatched an event — a message arrival, a collective completion, a
// rank becoming ready — and crashes the job at
// one of two protocol points: right after the first checkpoint commits,
// or as the first checkpoint's collective drain begins, with its topo
// order unexecuted. Every cut runs with full and with incremental
// images, written directly to the filesystem or staged through burst
// buffers, and the recovered run must end in the fault-free run's final
// state. A crash that leaves nothing restorable (no checkpoint committed
// yet, or none drained out of the burst buffers) is recovered the way a
// real job would be, by relaunching it. The cuts must include the hard
// cases: per spec, at least one checkpoint taken while a collective was
// partially arrived, one that drained in-flight messages into the image,
// and on a spec that splits communicators one whose drain had to order
// two overlapping collectives.
func TestEveryCutIsSafe(t *testing.T) {
	eng := fleet.NewEngine()
	direct, err := storage.Load("direct")
	if err != nil {
		t.Fatal(err)
	}
	// Burst buffers draining to a filesystem, both free: a generation is
	// durable the moment it commits, so a crash right after the commit
	// restarts from it through the staged path. With any drain time the
	// zero-delay crash always wins the race and every run would relaunch;
	// the staging fault plans under cmd/manasim/testdata cover that race.
	staged := &storage.Spec{PFS: &storage.PFSSpec{}, BurstBuffer: &storage.BurstBufferSpec{Capacity: 512 << 20}}
	stores := []*storage.Spec{direct, staged}
	plans := []*faultplan.Plan{
		{Faults: []faultplan.Spec{{At: "checkpoint-commit", N: 1, Kind: "rank-crash"}}},
		{Faults: []faultplan.Spec{{At: "drain-start", N: 1, Kind: "rank-crash"}}},
	}
	// restarted and relaunched count, per plan and storage, the runs that
	// crashed and came back from an image or from the start.
	var runs int
	var restarted, relaunched [2][2]int
	rankCounts, steps := []int{2, 3, 5, 8}, 6
	if *wideCuts {
		rankCounts, steps = []int{2, 3, 5, 8, 13}, 10
	}
	for _, name := range scenario.Names() {
		spec, err := eng.LoadSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		var midCollective, drained, overlapped bool
		for _, ranks := range rankCounts {
			job := fleet.Job{
				Spec: spec, Ranks: ranks, Steps: steps, Seed: 42,
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

			for pi, plan := range plans {
				for si, st := range stores {
					job.Faults, job.Storage = plan, st
					for _, at := range times {
						job.CkptAt = at
						for _, incremental := range []bool{false, true} {
							job.Incremental = incremental
							c, fresh := recoverJob(t, eng, job)
							runs++
							if fresh {
								relaunched[pi][si]++
							} else if len(c.Restarts()) > 0 {
								restarted[pi][si]++
							}
							if got := c.FinalFingerprint(); got != want {
								t.Errorf("%s ranks=%d ckpt-at=%v crash at %s %d storage=%d incremental=%v: final fingerprint %016x, fault-free %016x",
									name, ranks, at, plan.Faults[0].At, plan.Faults[0].N, si, incremental, got, want)
							}
							for _, rec := range c.Records() {
								midCollective = midCollective || rec.MidCollective
								drained = drained || rec.DrainedMsgs > 0
								overlapped = overlapped || rec.OverlapWidth > 1
							}
						}
					}
				}
			}
		}
		if !midCollective || !drained || len(spec.Splits) > 0 && !overlapped {
			t.Errorf("%s: cuts cover mid-collective=%v drained-messages=%v overlapping-collectives=%v, want all",
				name, midCollective, drained, overlapped)
		}
	}
	t.Logf("%d runs; by plan and storage, restarted from an image %v, relaunched %v", runs, restarted, relaunched)
	// Almost every commit crash restarts from the image it follows; the
	// exceptions are requests so late the job ends first. A drain-start
	// crash mostly lands before anything has committed, so it must crash
	// on both storages and restart from an image at least once.
	perPair := runs / len(plans) / len(stores)
	for si := range stores {
		if restarted[0][si] < perPair*3/4 {
			t.Errorf("storage %d: only %d of %d commit-crash runs restarted", si, restarted[0][si], perPair)
		}
		if restarted[1][si]+relaunched[1][si] == 0 {
			t.Errorf("storage %d: no drain-start crash fired", si)
		}
	}
	if restarted[1][0]+restarted[1][1] == 0 {
		t.Error("no drain-start crash restarted from an image")
	}
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

// recoverJob runs job to completion like runToEnd, except that a first
// failure with nothing to restore from — no checkpoint committed, or none
// verifiable on the filesystem — relaunches the job from the start: a
// new run with its one-shot fault spent, which is the run without it.
func recoverJob(t *testing.T, eng *fleet.Engine, job fleet.Job) (c *coordinator.Coordinator, relaunched bool) {
	t.Helper()
	c = newRun(t, eng, job)
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out != coordinator.Failed {
		return c, false
	}
	if len(c.Records()) > 0 {
		err = c.Restart()
		if err == nil {
			return runToEnd(t, c), false
		}
		if !errors.Is(err, ckptstore.ErrNoVerifiableGeneration) {
			t.Fatal(err)
		}
	}
	job.Faults = nil
	return runToEnd(t, newRun(t, eng, job)), true
}
