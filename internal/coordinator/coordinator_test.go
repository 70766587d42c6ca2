package coordinator

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"mana/internal/faultplan"
	"mana/internal/kernelsim"
	"mana/internal/scenario"
	"mana/internal/virtid"
	"mana/internal/vtime"
)

func smallConfig(ranks, steps int) Config {
	cfg := DefaultConfig()
	cfg.Ranks = ranks
	cfg.Programs = mustPrograms("default", scenario.Params{Ranks: ranks, Steps: steps, Seed: 7})
	cfg.Seed = 7
	return cfg
}

// TestDrainReachesZeroBeforeSnapshot stages a checkpoint request while a
// message is in flight and verifies the two-phase protocol buffers it at
// the receiver — leaving the network quiescent before any image is taken
// — and that the buffered message still reaches the application.
func TestDrainReachesZeroBeforeSnapshot(t *testing.T) {
	cfg := smallConfig(2, 0)
	cfg.Triggers = []Trigger{{At: 0, InFlight: true}}
	cfg.Programs = perRank(cfg.Ranks, func(id int) []scenario.Op {
		if id == 0 {
			return []scenario.Op{{Kind: scenario.OpSend, Peer: 1, Bytes: 4096, Tag: 1}}
		}
		return []scenario.Op{
			{Kind: scenario.OpCompute, Dur: 1 * vtime.Millisecond},
			{Kind: scenario.OpRecv, Peer: 0, Tag: 1},
		}
	})
	c := New(cfg)
	outcome, err := c.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if outcome != Completed {
		t.Fatalf("outcome = %v, want completed", outcome)
	}
	recs := c.Records()
	if len(recs) != 1 {
		t.Fatalf("checkpoints = %d, want 1", len(recs))
	}
	if recs[0].DrainedMsgs != 1 || recs[0].DrainedBytes != 4096 {
		t.Errorf("drained %d msgs / %d bytes, want 1 / 4096 — the in-flight message must be buffered",
			recs[0].DrainedMsgs, recs[0].DrainedBytes)
	}
	if got := c.net.InFlight(); got != 0 {
		t.Errorf("in-flight after run = %d, want 0", got)
	}
	if got := c.Ranks()[1].Stats().MsgsRecvd; got != 1 {
		t.Errorf("receiver consumed %d messages, want 1 (drained message must reach the app)", got)
	}
	// The drained message is part of the image: restarting from it must
	// still deliver the message exactly once.
	if err := c.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if got := c.Ranks()[1].InboxLen(); got != 1 {
		t.Fatalf("restored inbox = %d messages, want 1", got)
	}
	outcome, err = c.Run()
	if err != nil || outcome != Completed {
		t.Fatalf("post-restart run = %v, %v", outcome, err)
	}
	if got := c.Ranks()[1].Stats().MsgsRecvd; got != 1 {
		t.Errorf("after replay receiver consumed %d messages, want exactly 1", got)
	}
}

// TestMidCollectiveCheckpointDeferred requests a checkpoint while an
// allreduce is partially arrived and verifies the protocol defers the
// checkpoint until the collective completes.
func TestMidCollectiveCheckpointDeferred(t *testing.T) {
	cfg := smallConfig(4, 0)
	cfg.Triggers = []Trigger{{At: 0, MidCollective: true}}
	cfg.Programs = perRank(cfg.Ranks, func(id int) []scenario.Op {
		return []scenario.Op{
			// Skewed compute so ranks arrive at the collective at
			// different times.
			{Kind: scenario.OpCompute, Dur: vtime.Duration(id+1) * vtime.Millisecond},
			{Kind: scenario.OpAllreduce, Bytes: 8192},
			{Kind: scenario.OpCompute, Dur: 1 * vtime.Millisecond},
		}
	})
	c := New(cfg)
	outcome, err := c.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if outcome != Completed {
		t.Fatalf("outcome = %v, want completed", outcome)
	}
	recs := c.Records()
	if len(recs) != 1 {
		t.Fatalf("checkpoints = %d, want 1", len(recs))
	}
	rec := recs[0]
	if !rec.MidCollective {
		t.Error("record not marked mid-collective")
	}
	if rec.DeferredFor <= 0 {
		t.Errorf("DeferredFor = %v, want > 0 (checkpoint must wait out the allreduce)", rec.DeferredFor)
	}
	// Every rank must have completed the collective before its image was
	// taken: the image PCs must all be past the allreduce op.
	if err := c.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	for _, r := range c.Ranks() {
		if r.PC() < 2 {
			t.Errorf("rank %d image pc = %d, want >= 2 (past the collective)", r.ID(), r.PC())
		}
		if r.Stats().Collectives != 1 {
			t.Errorf("rank %d image collectives = %d, want 1", r.ID(), r.Stats().Collectives)
		}
	}
}

// TestCheckpointAtSafePointImmediate verifies a request that arrives with
// no collective in progress is serviced without deferral.
func TestCheckpointAtSafePointImmediate(t *testing.T) {
	cfg := smallConfig(4, 6)
	cfg.Triggers = []Trigger{{At: 0}}
	c := New(cfg)
	if _, err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	recs := c.Records()
	if len(recs) != 1 {
		t.Fatalf("checkpoints = %d, want 1", len(recs))
	}
	if recs[0].MidCollective {
		t.Error("request at t=0 cannot be mid-collective")
	}
	if recs[0].DeferredFor != 0 {
		t.Errorf("DeferredFor = %v, want 0", recs[0].DeferredFor)
	}
}

// TestRestartBitIdenticalToUncheckpointedRun is the paper's core
// transparency claim, pinned down: checkpoint twice (once mid-collective),
// fail, restart from the last image, run to completion — and end with
// exactly the virtual times, stats and memory contents of a run that
// never checkpointed at all.
func TestRestartBitIdenticalToUncheckpointedRun(t *testing.T) {
	base := smallConfig(8, 12)

	withCkpt := base
	withCkpt.Triggers = []Trigger{
		{At: vtime.Time(1 * vtime.Millisecond)},
		{At: vtime.Time(1 * vtime.Millisecond), MidCollective: true},
	}
	withCkpt.Faults = crashAfter(2, 100*vtime.Microsecond)

	c := New(withCkpt)
	outcome, err := c.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if outcome != Failed {
		t.Fatalf("outcome = %v, want failed (failure injection armed)", outcome)
	}
	if len(c.Records()) != 2 {
		t.Fatalf("checkpoints before failure = %d, want 2", len(c.Records()))
	}
	if !c.Records()[1].MidCollective {
		t.Error("second checkpoint should have been requested mid-collective")
	}
	if err := c.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	outcome, err = c.Run()
	if err != nil || outcome != Completed {
		t.Fatalf("post-restart run = %v, %v", outcome, err)
	}

	plain := New(base)
	outcome, err = plain.Run()
	if err != nil || outcome != Completed {
		t.Fatalf("uncheckpointed run = %v, %v", outcome, err)
	}

	for i := range plain.Ranks() {
		pr, cr := plain.Ranks()[i], c.Ranks()[i]
		if pt, ct := pr.Clock().Now(), cr.Clock().Now(); pt != ct {
			t.Errorf("rank %d final vtime: uncheckpointed %v vs restarted %v", i, pt, ct)
		}
		if ps, cs := pr.Stats(), cr.Stats(); ps != cs {
			t.Errorf("rank %d stats diverge:\n  uncheckpointed %+v\n  restarted      %+v", i, ps, cs)
		}
	}
	if pf, cf := plain.FinalFingerprint(), c.FinalFingerprint(); pf != cf {
		t.Errorf("final fingerprints diverge: %016x vs %016x", pf, cf)
	}
}

// TestReportByteIdentical runs the full fail-and-restart scenario twice
// and requires byte-identical reports.
func TestReportByteIdentical(t *testing.T) {
	run := func() string {
		cfg := smallConfig(8, 12)
		cfg.Triggers = []Trigger{
			{At: vtime.Time(1 * vtime.Millisecond)},
			{At: vtime.Time(1 * vtime.Millisecond), InFlight: true},
			{At: vtime.Time(1 * vtime.Millisecond), MidCollective: true},
		}
		cfg.Faults = crashAfter(3, 100*vtime.Microsecond)
		c := New(cfg)
		outcome, err := c.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		for outcome == Failed {
			if err := c.Restart(); err != nil {
				t.Fatalf("Restart: %v", err)
			}
			if outcome, err = c.Run(); err != nil {
				t.Fatalf("re-Run: %v", err)
			}
		}
		return c.Report()
	}
	r1, r2 := run(), run()
	if r1 != r2 {
		t.Errorf("reports differ between identical runs:\n--- run 1\n%s\n--- run 2\n%s", r1, r2)
	}
	if !strings.Contains(r1, "restarts: 1") {
		t.Errorf("report missing restart section:\n%s", r1)
	}
	if !strings.Contains(r1, "mid-collective=true") {
		t.Errorf("report missing mid-collective checkpoint:\n%s", r1)
	}
}

// TestRestartDiscardsPendingRequests pins down a rollback subtlety: a
// checkpoint request fired in the pre-failure timeline dies with that
// timeline — its scheduler state (clocks, collective progress) no
// longer exists after the rollback — but the checkpoint it promised is
// still owed. The failure lands while a collective is still in progress
// (so the request is pending, not yet serviced); after restart the
// stale request itself must not commit, and instead its trigger is
// un-consumed so the checkpoint re-fires from the replayed timeline's
// own state.
func TestRestartDiscardsPendingRequests(t *testing.T) {
	cfg := smallConfig(4, 0)
	cfg.Triggers = []Trigger{
		{At: 0},
		// Fires mid-collective before the failure; ranks must finish the
		// collective before it can be serviced, and the failure event
		// lands first (rank 3's blocking receive keeps it away from the
		// collective past the failure time).
		{At: 0, MidCollective: true},
	}
	// Checkpoint #1 commits at virtual time 0; ranks 1 and 2 enter the
	// allreduce at exactly 1ms (after their compute phases) while rank 3
	// is still blocked on its receive (the matching send only arrives at
	// ~1.0035ms), so a failure at 1.001ms lands mid-collective with the
	// deferred request still pending.
	cfg.Faults = crashAfter(1, 1001*vtime.Microsecond)
	cfg.Programs = perRank(cfg.Ranks, func(id int) []scenario.Op {
		// Rank 3 blocks on a receive that rank 0 only satisfies after its
		// own compute phase, so ranks 1 and 2 sit inside the allreduce —
		// partially arrived — when the failure event fires.
		switch id {
		case 0:
			return []scenario.Op{
				{Kind: scenario.OpCompute, Dur: 1 * vtime.Millisecond},
				{Kind: scenario.OpSend, Peer: 3, Bytes: 1024},
				{Kind: scenario.OpAllreduce, Bytes: 1024},
			}
		case 3:
			return []scenario.Op{
				{Kind: scenario.OpRecv, Peer: 0},
				{Kind: scenario.OpAllreduce, Bytes: 1024},
			}
		default:
			return []scenario.Op{
				{Kind: scenario.OpCompute, Dur: 1 * vtime.Millisecond},
				{Kind: scenario.OpAllreduce, Bytes: 1024},
			}
		}
	})
	c := New(cfg)
	outcome, err := c.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if outcome != Failed {
		t.Fatalf("outcome = %v, want failed", outcome)
	}
	if len(c.pending) == 0 {
		t.Fatal("test setup: expected a pending request at failure time " +
			"(mid-collective trigger should have fired during the countdown)")
	}
	if err := c.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	outcome, err = c.Run()
	if err != nil || outcome != Completed {
		t.Fatalf("post-restart run = %v, %v", outcome, err)
	}
	if got := len(c.Records()); got != 2 {
		t.Errorf("checkpoints = %d, want 2: the owed mid-collective checkpoint must re-fire after restart", got)
	}
	// The re-fired request must be serviced from the new timeline's own
	// state, not the abandoned one's: its request time cannot precede
	// the restart's resume clock.
	resume := c.Restarts()[0].ResumeClock
	for _, rec := range c.Records()[1:] {
		if rec.RequestedAt < resume {
			t.Errorf("checkpoint #%d requested@%v, before the restart resumed at %v: stale request leaked across the rollback",
				rec.Seq, rec.RequestedAt, resume)
		}
	}
	for _, rec := range c.Records() {
		if rec.DeferredFor < 0 {
			t.Errorf("checkpoint #%d has negative deferral %v", rec.Seq, rec.DeferredFor)
		}
	}
}

// TestRestartWithoutCheckpointFails covers the error path: a restart
// with nothing committed returns the named ErrNoCheckpoint.
func TestRestartWithoutCheckpointFails(t *testing.T) {
	c := New(smallConfig(2, 2))
	if err := c.Restart(); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("Restart with no committed checkpoint = %v, want ErrNoCheckpoint", err)
	}
}

// TestKernelPersonalityAffectsOverheadNotResults verifies the two kernel
// personalities produce different MANA overhead but identical message
// counts — the cost model changes timing, not behaviour.
func TestKernelPersonalityAffectsOverheadNotResults(t *testing.T) {
	mk := func(p kernelsim.Personality) *Coordinator {
		cfg := smallConfig(4, 8)
		cfg.Personality = p
		c := New(cfg)
		if _, err := c.Run(); err != nil {
			t.Fatalf("Run(%v): %v", p, err)
		}
		return c
	}
	unp := mk(kernelsim.Unpatched)
	pat := mk(kernelsim.Patched)
	for i := range unp.Ranks() {
		u, p := unp.Ranks()[i].Stats(), pat.Ranks()[i].Stats()
		if u.ManaOverhead <= p.ManaOverhead {
			t.Errorf("rank %d: unpatched overhead %v should exceed patched %v", i, u.ManaOverhead, p.ManaOverhead)
		}
		if u.MsgsSent != p.MsgsSent || u.Collectives != p.Collectives {
			t.Errorf("rank %d: personalities changed behaviour: %+v vs %+v", i, u, p)
		}
	}
}

// BenchmarkRun measures the scheduler + checkpoint engine end to end; the
// Makefile's bench target tracks this as the hot path for future scaling
// work.
func BenchmarkRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := smallConfig(8, 12)
		cfg.Triggers = []Trigger{{At: vtime.Time(1 * vtime.Millisecond)}}
		c := New(cfg)
		if _, err := c.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestVirtidTableRebuiltDeterministicallyOnRestart stages a checkpoint
// that lands while a nonblocking request is outstanding: rank 0 isends
// and blocks in a receive before its wait, and the in-flight trigger
// fires the checkpoint in exactly that window. After the injected
// failure and restart, the restored rank must hold the live request —
// resolving in a freshly rebuilt table — and the replayed run must end
// bit-identical to an uncheckpointed one, request accounting included.
func TestVirtidTableRebuiltDeterministicallyOnRestart(t *testing.T) {
	base := smallConfig(2, 0)
	script := func(id int) []scenario.Op {
		if id == 0 {
			return []scenario.Op{
				{Kind: scenario.OpIsend, Peer: 1, Bytes: 2048, Tag: 7},
				{Kind: scenario.OpRecv, Peer: 1, Tag: 8},
				{Kind: scenario.OpWait},
			}
		}
		return []scenario.Op{
			{Kind: scenario.OpCompute, Dur: 50 * vtime.Microsecond},
			{Kind: scenario.OpRecv, Peer: 0, Tag: 7},
			{Kind: scenario.OpSend, Peer: 0, Bytes: 2048, Tag: 8},
		}
	}
	base.Programs = perRank(base.Ranks, script)

	cfg := base
	cfg.Triggers = []Trigger{{At: 0, InFlight: true}}
	cfg.Faults = crashAfter(1, 10*vtime.Microsecond)

	c := New(cfg)
	outcome, err := c.Run()
	if err != nil || outcome != Failed {
		t.Fatalf("Run = %v, %v; want failed (failure injection armed)", outcome, err)
	}
	if len(c.Records()) != 1 {
		t.Fatalf("checkpoints = %d, want 1", len(c.Records()))
	}
	if err := c.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}

	// Immediately after restart: rank 0's live request must have survived
	// through the image into a rebuilt table.
	r0 := c.Ranks()[0]
	pending := r0.PendingRequests()
	if len(pending) != 1 {
		t.Fatalf("restored pending requests = %d, want 1 (checkpoint landed between isend and wait)", len(pending))
	}
	if _, ok := r0.Virtid().Lookup(virtid.Request, pending[0]); !ok {
		t.Error("restored live request does not resolve in the rebuilt table")
	}
	if got := r0.Virtid().Len(virtid.Request); got != 1 {
		t.Errorf("rebuilt request table has %d entries, want 1", got)
	}

	outcome, err = c.Run()
	if err != nil || outcome != Completed {
		t.Fatalf("post-restart run = %v, %v", outcome, err)
	}

	plain := New(base)
	if outcome, err := plain.Run(); err != nil || outcome != Completed {
		t.Fatalf("uncheckpointed run = %v, %v", outcome, err)
	}
	for i := range plain.Ranks() {
		if ps, cs := plain.Ranks()[i].Stats(), c.Ranks()[i].Stats(); ps != cs {
			t.Errorf("rank %d stats diverge (lookup accounting included):\n  uncheckpointed %+v\n  restarted      %+v", i, ps, cs)
		}
	}
	if pf, cf := plain.FinalFingerprint(), c.FinalFingerprint(); pf != cf {
		t.Errorf("final fingerprints diverge: %016x vs %016x", pf, cf)
	}
	// Every rank's table ends in the same terminal state as the
	// uncheckpointed run's: requests all retired, comm and datatype live.
	for i, cr := range c.Ranks() {
		if got := cr.Virtid().Len(virtid.Request); got != 0 {
			t.Errorf("rank %d ends with %d live requests, want 0", i, got)
		}
		if cr.Virtid().Len(virtid.Comm) != 1 || cr.Virtid().Len(virtid.Datatype) != 1 {
			t.Errorf("rank %d lost its init-time handles", i)
		}
	}
}

// TestLookupStatsAggregation pins the report's virtid accounting: the
// aggregate is the plain sum of per-rank counters, and the mutex and
// sharded implementations perform identical lookup counts (only the
// modelled cost differs).
func TestLookupStatsAggregation(t *testing.T) {
	run := func(impl virtid.Impl) *Coordinator {
		cfg := smallConfig(4, 8)
		cfg.Virtid = impl
		c := New(cfg)
		if outcome, err := c.Run(); err != nil || outcome != Completed {
			t.Fatalf("%v run = %v, %v", impl, outcome, err)
		}
		return c
	}
	mutex, sharded := run(virtid.ImplMutex), run(virtid.ImplSharded)
	ml, sl := mutex.LookupStats(), sharded.LookupStats()
	if ml.HandleLookups == 0 {
		t.Fatal("workload performed no handle lookups")
	}
	if ml.HandleLookups != sl.HandleLookups || ml.CommLookups != sl.CommLookups ||
		ml.DatatypeLookups != sl.DatatypeLookups || ml.RequestLookups != sl.RequestLookups {
		t.Errorf("lookup counts differ across implementations: mutex %+v vs sharded %+v", ml, sl)
	}
	if ml.HandleLookups != ml.CommLookups+ml.DatatypeLookups+ml.RequestLookups {
		t.Errorf("total %d != sum of per-kind counts %+v", ml.HandleLookups, ml)
	}
	if ml.LookupTime <= sl.LookupTime {
		t.Errorf("mutex modelled lookup time %v should exceed sharded %v", ml.LookupTime, sl.LookupTime)
	}
	wantMutex := vtime.Duration(ml.HandleLookups) * virtid.MutexLookupCost
	if ml.LookupTime != wantMutex {
		t.Errorf("mutex LookupTime = %v, want %v (lookups x calibrated cost)", ml.LookupTime, wantMutex)
	}
}

// TestUnfiredTriggersAreInvisible: triggers and virtual-time faults due
// after the job's makespan never fire, so a job that carries them prints
// the report of the same job without them — events= included, which
// counts the deliveries left queued at completion but none of the
// triggers and faults queued beside them. The job restarts once, so the
// late events are queued in both of its timelines.
func TestUnfiredTriggersAreInvisible(t *testing.T) {
	base := overlapConfig(8, 12)
	base.Triggers = []Trigger{{At: 0}, {At: vtime.Time(vtime.Millisecond)}}
	base.Faults = crashAfter(1, 50*vtime.Microsecond)
	c := New(base)
	for out, err := c.Run(); out != Completed; out, err = c.Run() {
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Restart(); err != nil {
			t.Fatal(err)
		}
	}
	want := c.Report()
	if !strings.Contains(want, "\nrestarts: 1\n") {
		t.Fatalf("the job without late events did not restart once:\n%s", want)
	}
	late := c.MaxClock().Add(vtime.Millisecond)
	cfg := base
	cfg.Triggers = append(slices.Clone(base.Triggers),
		Trigger{At: late}, Trigger{At: late, MidCollective: true},
		Trigger{At: late, InFlight: true}, Trigger{At: late, FormingColls: 2})
	cfg.Faults = append(slices.Clone(base.Faults),
		faultplan.Fault{Anchor: faultplan.AtVirtualTime, Time: late, Kind: faultplan.RankCrash})
	if got, _ := runToCompletion(t, cfg); got != want {
		t.Errorf("late triggers and faults moved the report:\n got %s\nwant %s", got, want)
	}
}
