package coordinator_test

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"mana/internal/coordinator"
	"mana/internal/fleet"
	"mana/internal/kernelsim"
	"mana/internal/scenario"
	"mana/internal/storage"
	"mana/internal/virtid"
	"mana/internal/vtime"
)

// observed is everything a run shows its callers: the report, how it
// ended, the counters and records behind the report, and the multiset
// of times the event loop dispatched at.
type observed struct {
	report          string
	err             string
	events, visits  uint64
	records         []coordinator.CheckpointRecord
	restarts        []coordinator.RestartRecord
	times           []vtime.Time
	ranAhead        uint64
	queueCap, rings int
}

// observe runs cfg to completion the way the fleet engine does —
// restarting after each injected failure, retrying a restart an injected
// restart fault killed — with run-ahead off (stepwise) or on.
func observe(cfg coordinator.Config, stepwise bool) observed {
	c := coordinator.New(cfg)
	c.SetStepwise(stepwise)
	var o observed
	c.OnDispatch(func(at vtime.Time) { o.times = append(o.times, at) })
	out, err := c.Run()
	for attempts := 0; err == nil && out == coordinator.Failed; {
		if attempts++; attempts > cfg.MaxRestarts {
			err = errors.New("restarts exhausted")
			break
		}
		if err = c.Restart(); errors.Is(err, coordinator.ErrRestartFault) {
			err = nil
			continue
		}
		if err == nil {
			out, err = c.Run()
		}
	}
	if err != nil {
		o.err = err.Error()
	}
	o.report = c.Report()
	o.events, o.visits = c.EventsDispatched(), c.RankVisits()
	o.records, o.restarts = c.Records(), c.Restarts()
	slices.Sort(o.times)
	o.ranAhead, o.queueCap, o.rings = c.RanAhead(), c.QueueCap(), c.LongestRing()
	return o
}

// TestRunAheadIsInvisible: a rank running its local operations ahead of
// the queue changes nothing a run shows. For every library spec at 2,
// 3, 5 and 16 ranks, fault-free, with the default crash, with
// incremental images and a full one every second checkpoint, and staged
// through compressing burst buffers, the run with run-ahead and the run
// without it must print the same report bytes, end the same way, count
// the same events and rank visits, commit the same checkpoint records,
// restart the same way and dispatch at the same times. The checkpoints
// come from the specs' own policies anchored at 1ms (plain, in-flight,
// mid-collective and forming-collectives triggers), so cuts, drains and
// condition triggers all fall inside the runs. Every spec must run some
// operations ahead, and the matrix must restart jobs and order
// collective drains, or the comparison shows nothing.
func TestRunAheadIsInvisible(t *testing.T) {
	eng := fleet.NewEngine()
	stagedCompressed, err := storage.Load("staged-compressed")
	if err != nil {
		t.Fatal(err)
	}
	modes := []struct {
		name string
		set  func(*fleet.Job)
	}{
		{"no-fail", func(j *fleet.Job) {}},
		{"crash", func(j *fleet.Job) { j.Crash = true }},
		{"incremental-full-every-2", func(j *fleet.Job) { j.Crash, j.Incremental, j.FullEvery = true, true, 2 }},
		{"staged-compressed", func(j *fleet.Job) { j.Crash, j.Incremental, j.Storage = true, true, stagedCompressed }},
	}
	var restarts, drains int
	for _, name := range scenario.Names() {
		spec, err := eng.LoadSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		var ranAhead, events uint64
		for _, ranks := range []int{2, 3, 5, 16} {
			for _, mode := range modes {
				job := fleet.Job{
					Spec: spec, Ranks: ranks, Steps: 12, Seed: 42,
					Kernel: kernelsim.Unpatched, Virtid: virtid.ImplSharded,
					CkptAt: vtime.Time(time.Millisecond), FullEvery: 4,
				}
				mode.set(&job)
				cfg, err := eng.Config(job)
				if err != nil {
					t.Fatal(err)
				}
				step, ahead := observe(cfg, true), observe(cfg, false)
				where := fmt.Sprintf("%s ranks=%d %s", name, ranks, mode.name)
				if step.ranAhead != 0 {
					t.Errorf("%s: the stepwise run ran %d operations ahead", where, step.ranAhead)
				}
				ranAhead += ahead.ranAhead
				events += ahead.events
				restarts += len(ahead.restarts)
				for _, rec := range ahead.records {
					if rec.DrainPlanned > 0 {
						drains++
					}
				}
				if ahead.report != step.report {
					t.Errorf("%s: reports differ\n--- stepwise\n%s\n--- run-ahead\n%s", where, step.report, ahead.report)
				}
				if ahead.err != step.err {
					t.Errorf("%s: run error %q, stepwise %q", where, ahead.err, step.err)
				}
				if ahead.events != step.events || ahead.visits != step.visits {
					t.Errorf("%s: events=%d rank-visits=%d, stepwise %d and %d", where, ahead.events, ahead.visits, step.events, step.visits)
				}
				if !reflect.DeepEqual(ahead.records, step.records) {
					t.Errorf("%s: checkpoint records differ", where)
				}
				if !reflect.DeepEqual(ahead.restarts, step.restarts) {
					t.Errorf("%s: restart records differ", where)
				}
				if !slices.Equal(ahead.times, step.times) {
					t.Errorf("%s: dispatch times differ", where)
				}
			}
		}
		t.Logf("%s: %d of %d events ran ahead", name, ranAhead, events)
		if ranAhead == 0 {
			t.Errorf("%s: no operation ran ahead", name)
		}
	}
	t.Logf("%d restarts, %d checkpoints after a collective drain", restarts, drains)
	if restarts == 0 || drains == 0 {
		t.Errorf("the matrix restarted %d jobs and drained collectives before %d checkpoints, want both", restarts, drains)
	}
}

// TestRunAheadGrowsNoStorage pins what running ahead may not cost: no
// pair ring holds more slots, and the event queue's arena no more
// capacity, than with every operation a queue event of its own. Two
// jobs: the default spec at 8,192 ranks and 5 steps (the benchmark's
// wide-idle job), where a send run ahead of its compute phase would keep
// a delivery queued beside every rank's ready event and double the
// arena; and a producer that sends to a consumer every 10us, which
// receives each message 1.5us after it is sent, before the next send:
// running the next send ahead of that receive, into a ring with no room,
// would grow the pair's ring from 2 slots to 4.
func TestRunAheadGrowsNoStorage(t *testing.T) {
	eng := fleet.NewEngine()
	spec, err := eng.LoadSpec("default")
	if err != nil {
		t.Fatal(err)
	}
	wide, err := eng.Config(fleet.Job{
		Spec: spec, Ranks: 8192, Steps: 5, Seed: 42,
		Kernel: kernelsim.Unpatched, Virtid: virtid.ImplSharded,
		CkptAt: vtime.Time(5 * time.Millisecond), FullEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 64
	producer := make(scenario.Program, 0, 3*rounds)
	consumer := make(scenario.Program, 0, rounds)
	for i := 0; i < rounds; i++ {
		producer = append(producer,
			scenario.Op{Kind: scenario.OpSend, Peer: 1, Bytes: 64, Tag: i},
			scenario.Op{Kind: scenario.OpCompute, Dur: 5 * vtime.Microsecond},
			scenario.Op{Kind: scenario.OpCompute, Dur: 5 * vtime.Microsecond})
		consumer = append(consumer, scenario.Op{Kind: scenario.OpRecv, Peer: 0, Tag: i})
	}
	pair := coordinator.DefaultConfig()
	pair.Ranks, pair.Triggers = 2, nil
	pair.Programs = []scenario.Program{producer, consumer}

	for _, tc := range []struct {
		name string
		cfg  coordinator.Config
	}{{"wide-idle", wide}, {"producer-consumer", pair}} {
		step, ahead := observe(tc.cfg, true), observe(tc.cfg, false)
		if ahead.err != "" || step.err != "" {
			t.Fatalf("%s: runs failed: %q, stepwise %q", tc.name, ahead.err, step.err)
		}
		t.Logf("%s: ran ahead %d of %d events; longest ring %d slots (stepwise %d), queue cap %d (stepwise %d)",
			tc.name, ahead.ranAhead, ahead.events, ahead.rings, step.rings, ahead.queueCap, step.queueCap)
		if ahead.ranAhead == 0 {
			t.Errorf("%s: no operation ran ahead", tc.name)
		}
		if ahead.rings > step.rings {
			t.Errorf("%s: longest pair ring: %d slots, stepwise %d", tc.name, ahead.rings, step.rings)
		}
		if ahead.queueCap > step.queueCap {
			t.Errorf("%s: event queue capacity: %d events, stepwise %d", tc.name, ahead.queueCap, step.queueCap)
		}
	}
}
