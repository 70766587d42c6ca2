package coordinator

import (
	"errors"
	"strings"
	"testing"

	"mana/internal/rank"
	"mana/internal/scenario"
	"mana/internal/vtime"
)

// --- pure drain-graph properties ------------------------------------------

// randomDAG builds a random acyclic drain graph: a hidden permutation
// fixes a legal completion order and edges are only added along it.
func randomDAG(rng *vtime.RNG) ([]drainNode, []drainEdge) {
	n := 2 + rng.Intn(12)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	nodes := make([]drainNode, n)
	for i := range nodes {
		nodes[i] = drainNode{comm: i + 1, seq: uint64(i*10) + uint64(rng.Intn(10))}
	}
	var edges []drainEdge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(10) < 3 {
				edges = append(edges, drainEdge{from: perm[i], to: perm[j], via: rng.Intn(64)})
			}
		}
	}
	return nodes, edges
}

// TestCheckAcyclicProperty is the drain-graph property test: across
// many random overlap graphs, checkAcyclic accepts every acyclic one and
// rejects the same graph once a cycle through some of its nodes is
// added, with the deadlock diagnostic.
func TestCheckAcyclicProperty(t *testing.T) {
	rng := vtime.NewRNG(99)
	for trial := 0; trial < 300; trial++ {
		nodes, edges := randomDAG(rng)
		if err := checkAcyclic(nodes, edges); err != nil {
			t.Fatalf("trial %d: acyclic graph rejected: %v", trial, err)
		}
		// Close a cycle through k distinct nodes, in a random order.
		k := 2 + rng.Intn(len(nodes)-1)
		cycle := make([]int, len(nodes))
		for i := range cycle {
			cycle[i] = i
		}
		for i := len(cycle) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			cycle[i], cycle[j] = cycle[j], cycle[i]
		}
		cycle = cycle[:k]
		for i, from := range cycle {
			edges = append(edges, drainEdge{from: from, to: cycle[(i+1)%k], via: rng.Intn(64)})
		}
		err := checkAcyclic(nodes, edges)
		if err == nil || !strings.Contains(err.Error(), "collective dependency cycle between ranks") {
			t.Fatalf("trial %d: graph with a %d-node cycle: err = %v, want the deadlock diagnostic", trial, k, err)
		}
	}
}

// TestTopoOrderCycleNamesRanks pins the deadlock diagnostic: a cyclic
// graph must fail, and the error must name the collectives and the
// ranks whose conflicting arrival orders close the cycle.
func TestTopoOrderCycleNamesRanks(t *testing.T) {
	nodes := []drainNode{
		{comm: 3, seq: 1, waiting: []int{8}},
		{comm: 4, seq: 2, waiting: []int{7}},
	}
	edges := []drainEdge{
		{from: 0, to: 1, via: 7}, // comm 3 holds rank 7, needed by comm 4
		{from: 1, to: 0, via: 8}, // comm 4 holds rank 8, needed by comm 3
	}
	err := checkAcyclic(nodes, edges)
	if err == nil {
		t.Fatal("cycle not detected")
	}
	for _, want := range []string{"deadlock", "ranks [7 8]", "comm 3", "comm 4", "rank 7", "rank 8"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("cycle diagnostic missing %q: %v", want, err)
		}
	}
}

// --- protocol-level scenarios -----------------------------------------

// splitThenBarriers builds the mis-ordered-collectives deadlock: both
// ranks split the world twice into the same two {0,1} communicators
// (slots 1 and 2), then enter the two barriers in opposite orders.
func splitThenBarriers(id int) []scenario.Op {
	first, second := 1, 2
	if id == 1 {
		first, second = 2, 1
	}
	return []scenario.Op{
		{Kind: scenario.OpCommSplit, Comm: 0, Color: 0},
		{Kind: scenario.OpCommSplit, Comm: 0, Color: 0},
		{Kind: scenario.OpCompute, Dur: 10 * vtime.Microsecond},
		{Kind: scenario.OpBarrier, Comm: first},
		{Kind: scenario.OpBarrier, Comm: second},
	}
}

// TestMisorderedCollectivesDeadlockDiagnosed runs the cyclic scenario
// with no checkpoint at all: the event queue empties with both ranks
// stuck, and the scheduler's stall diagnostic must recognise the
// collective dependency cycle and name the ranks.
func TestMisorderedCollectivesDeadlockDiagnosed(t *testing.T) {
	cfg := smallConfig(2, 0)
	cfg.Triggers = nil
	cfg.Programs = perRank(cfg.Ranks, splitThenBarriers)
	c := New(cfg)
	outcome, err := c.Run()
	if outcome != Failed || err == nil {
		t.Fatalf("Run = %v, %v; want failed with a deadlock error", outcome, err)
	}
	for _, want := range []string{"deadlock", "dependency cycle", "ranks [0 1]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("deadlock diagnostic missing %q: %v", want, err)
		}
	}
}

// TestCheckpointIntentDetectsCycle requests a checkpoint while the
// cyclic scenario is wedged: the drain planner, built at checkpoint-
// intent time, must refuse to order the graph and surface the same
// rank-naming deadlock diagnostic.
func TestCheckpointIntentDetectsCycle(t *testing.T) {
	cfg := smallConfig(2, 0)
	cfg.Triggers = []Trigger{{At: vtime.Time(1 * vtime.Millisecond)}}
	cfg.Programs = perRank(cfg.Ranks, splitThenBarriers)
	c := New(cfg)
	outcome, err := c.Run()
	if outcome != Failed || err == nil {
		t.Fatalf("Run = %v, %v; want failed with a drain-order error", outcome, err)
	}
	for _, want := range []string{"checkpoint drain cannot be ordered", "dependency cycle", "ranks [0 1]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("drain-plan diagnostic missing %q: %v", want, err)
		}
	}
	if len(c.Records()) != 0 {
		t.Errorf("deadlocked job committed %d checkpoints, want 0", len(c.Records()))
	}
}

// overlapConfig builds a coordinator config on the overlap workload
// with a checkpoint requested once at least two collectives are
// simultaneously in flight.
func overlapConfig(ranks, steps int) Config {
	cfg := DefaultConfig()
	cfg.Ranks = ranks
	cfg.Programs = mustPrograms("overlap", scenario.Params{Ranks: ranks, Steps: steps, Seed: 7})
	cfg.Seed = 7
	cfg.Triggers = nil
	return cfg
}

// TestOverlapDrainCheckpointConsistentCut is the tentpole's acceptance
// scenario at coordinator level: ranks enter collectives on overlapping
// sub-communicators concurrently, a checkpoint is requested while at
// least two are in flight, the planner drains them in dependency order,
// and after an injected failure the restarted run ends bit-identical to
// a run that never checkpointed.
func TestOverlapDrainCheckpointConsistentCut(t *testing.T) {
	base := overlapConfig(12, 8)

	withCkpt := base
	withCkpt.Triggers = []Trigger{{At: vtime.Time(500 * vtime.Microsecond), FormingColls: 2}}
	withCkpt.Faults = crashAfter(1, 100*vtime.Microsecond)

	c := New(withCkpt)
	outcome, err := c.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if outcome != Failed {
		t.Fatalf("outcome = %v, want failed (failure injection armed)", outcome)
	}
	recs := c.Records()
	if len(recs) != 1 {
		t.Fatalf("checkpoints = %d, want 1", len(recs))
	}
	if recs[0].OverlapWidth < 2 {
		t.Errorf("OverlapWidth = %d, want >= 2 (checkpoint must land on simultaneously in-flight collectives)",
			recs[0].OverlapWidth)
	}
	if recs[0].DrainPlanned < recs[0].OverlapWidth {
		t.Errorf("DrainPlanned = %d < OverlapWidth = %d", recs[0].DrainPlanned, recs[0].OverlapWidth)
	}
	if recs[0].DrainEvents == 0 {
		t.Error("DrainEvents = 0, want > 0 (the drain is executed as scheduler events)")
	}
	if err := c.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	// The checkpoint landed on a consistent cut: no rank mid-collective.
	for _, r := range c.Ranks() {
		if r.State() != rank.Running && r.State() != rank.Done {
			t.Errorf("restored rank %d in state %v, want running/done", r.ID(), r.State())
		}
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

// TestRestartBeforeSplitsReplaysCommIDs checkpoints before any
// comm-split has completed, fails, and restarts: the replayed splits
// must re-mint identical communicator ids and virtual handles, ending
// bit-identical to an uncheckpointed run.
func TestRestartBeforeSplitsReplaysCommIDs(t *testing.T) {
	base := overlapConfig(8, 4)

	withCkpt := base
	withCkpt.Triggers = []Trigger{{At: 0}}
	withCkpt.Faults = crashAfter(1, 50*vtime.Microsecond)

	c := New(withCkpt)
	outcome, err := c.Run()
	if err != nil || outcome != Failed {
		t.Fatalf("Run = %v, %v; want failed", outcome, err)
	}
	if err := c.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	// The image predates the splits: every rank must be back to the
	// world communicator only.
	for _, r := range c.Ranks() {
		if got := r.CommCount(); got != 1 {
			t.Fatalf("restored rank %d has %d comm slots, want 1 (splits belong to the dead timeline)", r.ID(), got)
		}
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
		pr, cr := plain.Ranks()[i], c.Ranks()[i]
		if pr.CommCount() != cr.CommCount() {
			t.Errorf("rank %d comm slots: %d vs %d", i, pr.CommCount(), cr.CommCount())
			continue
		}
		for slot := 0; slot < pr.CommCount(); slot++ {
			if pr.CommID(slot) != cr.CommID(slot) {
				t.Errorf("rank %d slot %d: comm id %d vs %d (replayed split minted a different id)",
					i, slot, pr.CommID(slot), cr.CommID(slot))
			}
		}
		if ps, cs := pr.Stats(), cr.Stats(); ps != cs {
			t.Errorf("rank %d stats diverge:\n  uncheckpointed %+v\n  restarted      %+v", i, ps, cs)
		}
	}
	if pf, cf := plain.FinalFingerprint(), c.FinalFingerprint(); pf != cf {
		t.Errorf("final fingerprints diverge: %016x vs %016x", pf, cf)
	}
}

// TestDrainHoldsUnneededRanks pins the safe-point rule: while a drain
// is in progress, a rank whose next collective is not part of the plan
// is held at the boundary — its image shows the collective not yet
// entered — while the planned collective's members complete theirs.
func TestDrainHoldsUnneededRanks(t *testing.T) {
	cfg := smallConfig(4, 0)
	// One split: comm 1 = {0,1} (colour 0), comm 2 = {2,3} (colour 1).
	// Slot 1 on every rank names its own group's communicator.
	compute := map[int]vtime.Duration{
		0: 10 * vtime.Microsecond,
		1: 50 * vtime.Microsecond,
		2: 30 * vtime.Microsecond,
		3: 200 * vtime.Microsecond,
	}
	cfg.Programs = perRank(cfg.Ranks, func(id int) []scenario.Op {
		return []scenario.Op{
			{Kind: scenario.OpCommSplit, Comm: 0, Color: id / 2},
			{Kind: scenario.OpCompute, Dur: compute[id]},
			{Kind: scenario.OpBarrier, Comm: 1},
			{Kind: scenario.OpCompute, Dur: 10 * vtime.Microsecond},
		}
	})
	// Request the checkpoint while rank 0 is inside the {0,1} barrier
	// (from ~20us) and before rank 2 reaches the {2,3} barrier (~36us).
	cfg.Triggers = []Trigger{{At: vtime.Time(25 * vtime.Microsecond)}}
	c := New(cfg)
	outcome, err := c.Run()
	if err != nil || outcome != Completed {
		t.Fatalf("Run = %v, %v", outcome, err)
	}
	recs := c.Records()
	if len(recs) != 1 {
		t.Fatalf("checkpoints = %d, want 1", len(recs))
	}
	if recs[0].DrainPlanned != 1 || recs[0].OverlapWidth != 1 {
		t.Errorf("drain planned=%d width=%d, want 1/1 (only the {0,1} barrier was in flight)",
			recs[0].DrainPlanned, recs[0].OverlapWidth)
	}
	if err := c.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	// Ranks 0 and 1 completed their planned barrier before the images
	// were taken; rank 2 was held at its unplanned barrier boundary.
	for id, wantPC := range map[int]int{0: 3, 1: 3, 2: 2} {
		if got := c.Ranks()[id].PC(); got != wantPC {
			t.Errorf("rank %d image pc = %d, want %d", id, got, wantPC)
		}
	}
	if got := c.Ranks()[2].Stats().Collectives; got != 0 {
		t.Errorf("held rank 2 completed %d collectives before the checkpoint, want 0", got)
	}
	if outcome, err := c.Run(); err != nil || outcome != Completed {
		t.Fatalf("post-restart run = %v, %v", outcome, err)
	}
	for _, r := range c.Ranks() {
		if got := r.Stats().Collectives; got != 1 {
			t.Errorf("rank %d finished %d collectives, want 1", r.ID(), got)
		}
	}
}

// TestDrainExtendsPlanThroughBlockedChain pins needed-ness propagation:
// the planned collective waits for rank 1, rank 1 is blocked on a
// receive from rank 2, and rank 2's send only happens after its own —
// initially unplanned — barrier. The planner must pull rank 2's barrier
// into the plan (DrainPlanned grows past OverlapWidth) instead of
// holding rank 2 and stalling the drain.
func TestDrainExtendsPlanThroughBlockedChain(t *testing.T) {
	cfg := smallConfig(4, 0)
	cfg.Programs = perRank(cfg.Ranks, func(id int) []scenario.Op {
		switch id {
		case 0:
			return []scenario.Op{
				{Kind: scenario.OpCommSplit, Comm: 0, Color: 0},
				{Kind: scenario.OpCompute, Dur: 5 * vtime.Microsecond},
				{Kind: scenario.OpBarrier, Comm: 1},
			}
		case 1:
			return []scenario.Op{
				{Kind: scenario.OpCommSplit, Comm: 0, Color: 0},
				{Kind: scenario.OpCompute, Dur: 10 * vtime.Microsecond},
				{Kind: scenario.OpRecv, Peer: 2},
				{Kind: scenario.OpBarrier, Comm: 1},
			}
		case 2:
			return []scenario.Op{
				{Kind: scenario.OpCommSplit, Comm: 0, Color: 1},
				{Kind: scenario.OpCompute, Dur: 30 * vtime.Microsecond},
				{Kind: scenario.OpBarrier, Comm: 1},
				{Kind: scenario.OpSend, Peer: 1, Bytes: 1024},
			}
		default:
			return []scenario.Op{
				{Kind: scenario.OpCommSplit, Comm: 0, Color: 1},
				{Kind: scenario.OpCompute, Dur: 40 * vtime.Microsecond},
				{Kind: scenario.OpBarrier, Comm: 1},
			}
		}
	})
	cfg.Triggers = []Trigger{{At: vtime.Time(20 * vtime.Microsecond)}}
	c := New(cfg)
	outcome, err := c.Run()
	if err != nil || outcome != Completed {
		t.Fatalf("Run = %v, %v", outcome, err)
	}
	recs := c.Records()
	if len(recs) != 1 {
		t.Fatalf("checkpoints = %d, want 1", len(recs))
	}
	if recs[0].OverlapWidth != 1 {
		t.Errorf("OverlapWidth = %d, want 1 (only the {0,1} barrier was in flight at intent time)", recs[0].OverlapWidth)
	}
	if recs[0].DrainPlanned != 2 {
		t.Errorf("DrainPlanned = %d, want 2 (the {2,3} barrier must join the plan through the blocked-receive chain)",
			recs[0].DrainPlanned)
	}
	if got := c.Ranks()[1].Stats().MsgsRecvd; got != 1 {
		t.Errorf("rank 1 received %d messages, want 1", got)
	}
}

// TestOverlapReportByteIdentical runs the overlap scenario (checkpoint,
// failure, restart) twice and requires byte-identical reports — the
// drain planner introduces no scheduling nondeterminism.
func TestOverlapReportByteIdentical(t *testing.T) {
	run := func() string {
		cfg := overlapConfig(12, 8)
		cfg.Triggers = []Trigger{
			{At: vtime.Time(500 * vtime.Microsecond)},
			{At: vtime.Time(500 * vtime.Microsecond), FormingColls: 2},
		}
		cfg.Faults = crashAfter(2, 100*vtime.Microsecond)
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
	if !strings.Contains(r1, "comm-splits executed=24") {
		t.Errorf("report missing comm-split accounting:\n%s", r1)
	}
}

// TestMismatchedCollectiveIsAnError: ranks whose programs disagree on a
// collective — rank 0 enters a barrier where the others enter an
// allreduce, as hand-built programs can make them — end the run with
// ErrCollectiveMismatch instead of a panic.
func TestMismatchedCollectiveIsAnError(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		cfg := smallConfig(4, 0)
		cfg.Triggers = nil
		cfg.Programs = perRank(cfg.Ranks, func(id int) []scenario.Op {
			kind := scenario.OpAllreduce
			if id == 0 {
				kind = scenario.OpBarrier
			}
			return []scenario.Op{
				{Kind: scenario.OpCompute, Dur: vtime.Duration(10+id) * vtime.Microsecond},
				{Kind: kind, Comm: 0, Bytes: 8},
			}
		})
		outcome, err := New(cfg).Run()
		if outcome != Failed || !errors.Is(err, ErrCollectiveMismatch) {
			t.Fatalf("Run = %v, %v; want failed with ErrCollectiveMismatch", outcome, err)
		}
		// Rank 0 computes least, so its barrier forms first.
		if !strings.Contains(err.Error(), "rank 1 arrived at allreduce while barrier is forming on comm 0") {
			t.Errorf("error does not name the disagreement: %v", err)
		}
	})
}
