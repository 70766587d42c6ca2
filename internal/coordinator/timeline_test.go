package coordinator

import (
	"reflect"
	"testing"

	"mana/internal/faultplan"
	"mana/internal/vtime"
)

// TestRestartBuildsTheTimelineOfItsLink: a job that runs on past link k,
// crashes and restarts holds, field for field, the timeline of a job
// that crashed the moment link k committed (a checkpoint-commit crash at
// delay 0) and restarted: nothing of what the dead timeline did after
// the link — collectives it formed, a drain it began, a communicator it
// split off — reaches the next one. Each case first checks that the dead
// timeline did what the case names, and every restarted rank's region
// table is sized as a new rank's is, for the layout's seven upper-half
// regions and every sbrk its program makes.
func TestRestartBuildsTheTimelineOfItsLink(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   func() Config
		k     int
		crash []faultplan.Fault
		// dead checks the dead timeline against the reference's.
		dead func(t *testing.T, dead, ref *Coordinator)
	}{{
		name: "virtual-time crash after collectives",
		cfg: func() Config {
			cfg := smallConfig(6, 40)
			cfg.Triggers = []Trigger{{At: vtime.Time(2 * vtime.Millisecond)}}
			return cfg
		},
		k:     1,
		crash: []faultplan.Fault{{Anchor: faultplan.AtVirtualTime, Time: vtime.Time(6 * vtime.Millisecond), Kind: faultplan.RankCrash}},
		dead: func(t *testing.T, dead, ref *Coordinator) {
			if dead.collSeq <= ref.collSeq {
				t.Fatalf("the dead timeline formed %d collectives, the reference %d: none after the link", dead.collSeq, ref.collSeq)
			}
		},
	}, {
		name: "drain-start crash",
		cfg: func() Config {
			cfg := overlapConfig(12, 8)
			cfg.Triggers = []Trigger{{At: 0}, {At: vtime.Time(500 * vtime.Microsecond), FormingColls: 2}}
			return cfg
		},
		k:     1,
		crash: []faultplan.Fault{{Anchor: faultplan.AtDrainStart, N: 2, Kind: faultplan.RankCrash, Delay: 5 * vtime.Microsecond}},
		dead: func(t *testing.T, dead, _ *Coordinator) {
			held := 0
			if dead.draining() {
				for _, h := range dead.plan.held {
					if h {
						held++
					}
				}
			}
			if !dead.draining() || held == 0 || len(dead.pending) == 0 {
				t.Fatalf("the dead timeline crashed with draining=%v, %d ranks held, %d requests pending; want a drain holding ranks for a request",
					dead.draining(), held, len(dead.pending))
			}
		},
	}, {
		name: "comm-split after the link",
		cfg: func() Config {
			cfg := overlapConfig(8, 4)
			cfg.Triggers = []Trigger{{At: 0}}
			return cfg
		},
		k:     1,
		crash: crashAfter(1, 50*vtime.Microsecond),
		dead: func(t *testing.T, dead, ref *Coordinator) {
			if len(dead.comms) <= len(ref.comms) {
				t.Fatalf("the dead timeline knows %d communicators, the reference %d: no split after the link", len(dead.comms), len(ref.comms))
			}
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			crashed := func(faults []faultplan.Fault) *Coordinator {
				cfg := tc.cfg()
				cfg.Faults = faults
				c := New(cfg)
				if out, err := c.Run(); err != nil || out != Failed {
					t.Fatalf("Run = %v, %v; want the injected crash", out, err)
				}
				if n := len(c.Records()); n != tc.k {
					t.Fatalf("%d checkpoints committed before the crash, want %d", n, tc.k)
				}
				return c
			}
			c, ref := crashed(tc.crash), crashed(crashAfter(tc.k, 0))
			tc.dead(t, c, ref)
			for _, j := range []*Coordinator{c, ref} {
				if err := j.Restart(); err != nil {
					t.Fatalf("Restart: %v", err)
				}
				if got := j.Restarts()[0].FromSeq; got != tc.k {
					t.Fatalf("restarted from link %d, want %d", got, tc.k)
				}
			}
			progs := c.cfg.Programs
			got, want := c.timelineView(), ref.timelineView()
			fields := reflect.TypeFor[timeline]()
			if len(got) != fields.NumField() {
				t.Fatalf("the view holds %d fields of the timeline's %d", len(got), fields.NumField())
			}
			for i := range fields.NumField() {
				name := fields.Field(i).Name
				if !reflect.DeepEqual(got[name], want[name]) {
					t.Errorf("restarted timeline's %s:\n got %+v\nwant %+v", name, got[name], want[name])
				}
			}
			for i, r := range got["ranks"].([]rankView) {
				if want := 7 + progs[i].Sbrks(); r.Table[1] != want {
					t.Errorf("restarted rank %d's region table has room for %d entries, want %d", i, r.Table[1], want)
				}
			}
		})
	}
}
