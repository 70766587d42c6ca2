package coordinator_test

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"testing"
	"time"

	"mana/internal/coordinator"
	"mana/internal/faultplan"
	"mana/internal/fleet"
	"mana/internal/kernelsim"
	"mana/internal/rank"
	"mana/internal/scenario"
	"mana/internal/virtid"
	"mana/internal/vtime"
)

// pairCounts returns, per directed pair (sender, receiver), what the
// senders count sent and what the receivers count received; pairs with
// nothing counted are absent.
func pairCounts(ranks []*rank.Rank) (sent, received map[[2]int]uint64) {
	sent, received = map[[2]int]uint64{}, map[[2]int]uint64{}
	for _, r := range ranks {
		for _, pc := range r.Counts() {
			if pc.Sent > 0 {
				sent[[2]int{r.ID(), pc.Peer}] = pc.Sent
			}
			if pc.Received > 0 {
				received[[2]int{pc.Peer, r.ID()}] = pc.Received
			}
		}
	}
	return sent, received
}

// TestCountersAgreeAtEveryCommit holds the invariant the §3.1 drain
// establishes: at every commit each rank's count of the messages it sent
// a peer equals that peer's count of the messages it received from it,
// drained ones included, and at job end each rank's per-peer sent counts
// sum to its MsgsSent. Every library spec at 2, 3 and 8 ranks runs
// fault-free and under the multi-failure plan (a drain-start crash, a
// torn image write, a crashed restart), whose restarted ranks take their
// counts from their images.
func TestCountersAgreeAtEveryCommit(t *testing.T) {
	data, err := os.ReadFile("../../cmd/manasim/testdata/faults/multi-failure.json")
	if err != nil {
		t.Fatal(err)
	}
	multi, err := faultplan.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	eng := fleet.NewEngine()
	var commits, drained, restarts int
	for _, name := range scenario.Names() {
		spec, err := eng.LoadSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, ranks := range []int{2, 3, 8} {
			for _, plan := range []*faultplan.Plan{nil, multi} {
				where := fmt.Sprintf("%s ranks=%d faults=%v", name, ranks, plan != nil)
				cfg, err := eng.Config(fleet.Job{
					Spec: spec, Ranks: ranks, Steps: 30, Seed: 42,
					Kernel: kernelsim.Unpatched, Virtid: virtid.ImplSharded,
					CkptAt: vtime.Time(5 * time.Millisecond), FullEvery: 4, Faults: plan,
				})
				if err != nil {
					t.Fatal(err)
				}
				c := coordinator.New(cfg)
				c.OnCommit(func(seq int) {
					commits++
					if sent, received := pairCounts(c.Ranks()); !maps.Equal(sent, received) {
						t.Errorf("%s: at commit #%d the senders count %v sent, the receivers %v received", where, seq, sent, received)
					}
				})
				for {
					out, err := c.Run()
					if err != nil {
						t.Fatalf("%s: Run: %v", where, err)
					}
					if out == coordinator.Completed {
						break
					}
					for err := c.Restart(); err != nil; err = c.Restart() {
						if !errors.Is(err, coordinator.ErrRestartFault) {
							t.Fatalf("%s: Restart: %v", where, err)
						}
					}
				}
				restarts += len(c.Restarts())
				for _, rec := range c.Records() {
					drained += int(rec.DrainedMsgs)
				}
				for _, r := range c.Ranks() {
					var total uint64
					for _, pc := range r.Counts() {
						total += pc.Sent
					}
					if total != r.Stats().MsgsSent {
						t.Errorf("%s: rank %d counts %d sent to its peers, MsgsSent %d", where, r.ID(), total, r.Stats().MsgsSent)
					}
				}
			}
		}
	}
	t.Logf("%d commits with %d messages drained, %d restarts", commits, drained, restarts)
	if commits == 0 || drained == 0 || restarts == 0 {
		t.Errorf("the matrix committed %d checkpoints, drained %d messages and restarted %d times; want all three", commits, drained, restarts)
	}
}
