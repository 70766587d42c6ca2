package coordinator

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mana/internal/ckptstore"
	"mana/internal/faultplan"
	"mana/internal/fnv1a"
	"mana/internal/memsim"
	"mana/internal/netsim"
	"mana/internal/rank"
	"mana/internal/scenario"
	"mana/internal/virtid"
	"mana/internal/vtime"
)

// faultConfig mirrors the CLI's default scenario — the classic three
// checkpoint triggers at 5ms over the 8-rank default workload — with no
// failure configured; tests overlay their fault plans on top.
func faultConfig() Config {
	cfg := DefaultConfig()
	at := vtime.Time(5 * vtime.Millisecond)
	cfg.Triggers = []Trigger{{At: at}, {At: at, InFlight: true}, {At: at, MidCollective: true}}
	return cfg
}

// completeWithRecovery drives c like the fleet engine does: run, restart
// on failure (retrying past injected restart faults), until completion.
func completeWithRecovery(t *testing.T, c *Coordinator) {
	t.Helper()
	for attempts := 0; ; {
		outcome, err := c.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if outcome == Completed {
			return
		}
		for {
			if attempts++; attempts > 10 {
				t.Fatal("runaway restart loop")
			}
			err = c.Restart()
			if err == nil {
				break
			}
			if !errors.Is(err, ErrRestartFault) {
				t.Fatalf("Restart: %v", err)
			}
		}
	}
}

// crashAfter is the one-fault plan that crashes the job delay of
// virtual time after checkpoint #n commits.
func crashAfter(n int, delay vtime.Duration) []faultplan.Fault {
	return []faultplan.Fault{{Anchor: faultplan.AtCheckpointCommit, N: n, Kind: faultplan.RankCrash, Delay: delay}}
}

// faultFreeFingerprint runs the same config without any fault plan and
// returns its final application-state fingerprint — the recovery
// contract's reference value.
func faultFreeFingerprint(t *testing.T, cfg Config) uint64 {
	t.Helper()
	cfg.Faults = nil
	c := New(cfg)
	completeWithRecovery(t, c)
	return c.FinalFingerprint()
}

// TestTornWriteFallsBackOneGeneration pins the torn-link recovery path:
// a crash mid-image-write commits a partial link, restart verification
// rejects it, and the walk falls back one full generation. The replayed
// timeline must land on the fault-free fingerprint.
func TestTornWriteFallsBackOneGeneration(t *testing.T) {
	cfg := faultConfig()
	cfg.Faults = []faultplan.Fault{
		{Anchor: faultplan.AtImageWrite, N: 3, Kind: faultplan.TornWrite},
	}
	c := New(cfg)
	completeWithRecovery(t, c)

	recs := c.Records()
	if len(recs) != 3 {
		t.Fatalf("checkpoints = %d, want 3", len(recs))
	}
	if recs[2].TornImages != 1 {
		t.Errorf("checkpoint #3 TornImages = %d, want 1", recs[2].TornImages)
	}
	if recs[2].ImageBytes >= recs[1].ImageBytes {
		t.Errorf("torn checkpoint wrote %d bytes, not less than the intact #2's %d",
			recs[2].ImageBytes, recs[1].ImageBytes)
	}
	rst := c.Restarts()
	if len(rst) != 1 {
		t.Fatalf("restarts = %d, want 1", len(rst))
	}
	r := rst[0]
	if r.FromSeq != 2 || r.FallbackDepth != 1 {
		t.Errorf("restored from #%d depth %d, want #2 depth 1", r.FromSeq, r.FallbackDepth)
	}
	if r.TornLinks != 1 || r.CorruptLinks != 0 {
		t.Errorf("torn/corrupt links = %d/%d, want 1/0", r.TornLinks, r.CorruptLinks)
	}
	if r.VerifiedPages == 0 || r.VerifyTime == 0 {
		t.Errorf("verification not accounted: pages=%d time=%v", r.VerifiedPages, r.VerifyTime)
	}
	if r.LostWork <= 0 {
		t.Errorf("LostWork = %v, want > 0 (the fallback re-executes work past checkpoint #2)", r.LostWork)
	}
	if got, want := c.FinalFingerprint(), faultFreeFingerprint(t, cfg); got != want {
		t.Errorf("final fingerprint %016x differs from fault-free %016x", got, want)
	}
}

// TestPageCorruptionDetectedOnRestart pins the silent-corruption path: a
// page-corruption fault damages the image payload without touching the
// capture-time hash memos, so nothing notices until restart verification
// recomputes the hashes and falls back past the corrupt link.
func TestPageCorruptionDetectedOnRestart(t *testing.T) {
	cfg := faultConfig()
	cfg.Faults = []faultplan.Fault{
		{Anchor: faultplan.AtImageWrite, N: 3, Kind: faultplan.PageCorruption, Rank: 0, Pages: 4},
		{Anchor: faultplan.AtCheckpointCommit, N: 3, Kind: faultplan.RankCrash, Delay: 100 * vtime.Microsecond},
	}
	c := New(cfg)
	completeWithRecovery(t, c)

	recs := c.Records()
	if len(recs) != 3 {
		t.Fatalf("checkpoints = %d, want 3", len(recs))
	}
	if recs[2].CorruptPages != 4 {
		t.Errorf("checkpoint #3 CorruptPages = %d, want 4", recs[2].CorruptPages)
	}
	rst := c.Restarts()
	if len(rst) != 1 {
		t.Fatalf("restarts = %d, want 1", len(rst))
	}
	r := rst[0]
	if r.FromSeq != 2 || r.FallbackDepth != 1 || r.CorruptLinks != 1 {
		t.Errorf("restored from #%d depth %d corrupt-links %d, want #2 / 1 / 1",
			r.FromSeq, r.FallbackDepth, r.CorruptLinks)
	}
	if got, want := c.FinalFingerprint(), faultFreeFingerprint(t, cfg); got != want {
		t.Errorf("final fingerprint %016x differs from fault-free %016x", got, want)
	}
}

// TestMidDrainCrashReplansAfterRestart pins the drain-start anchor: the
// crash lands while checkpoint #3's collective drain plan is executing,
// the partial plan dies with the timeline, and the owed checkpoint
// re-fires — rebuilding its drain plan — in the replayed timeline.
func TestMidDrainCrashReplansAfterRestart(t *testing.T) {
	cfg := faultConfig()
	cfg.Faults = []faultplan.Fault{
		{Anchor: faultplan.AtDrainStart, N: 3, Kind: faultplan.RankCrash, Delay: 10 * vtime.Microsecond},
	}
	c := New(cfg)
	completeWithRecovery(t, c)

	if got := len(c.Restarts()); got != 1 {
		t.Fatalf("restarts = %d, want 1", got)
	}
	// The crash pre-empted checkpoint #3's commit; the re-fired request
	// must still produce it, so all three checkpoints commit.
	if got := len(c.Records()); got != 3 {
		t.Errorf("checkpoints = %d, want 3: the mid-drain checkpoint must be re-planned after restart", got)
	}
	if r := c.Restarts()[0]; r.FromSeq != 2 || r.FallbackDepth != 0 {
		t.Errorf("restored from #%d depth %d, want #2 depth 0 (both committed links are intact)",
			r.FromSeq, r.FallbackDepth)
	}
	if got, want := c.FinalFingerprint(), faultFreeFingerprint(t, cfg); got != want {
		t.Errorf("final fingerprint %016x differs from fault-free %016x", got, want)
	}
}

// TestRestartFaultFallsBackDeeper pins the double-fault path: the first
// restart attempt crashes mid-restore (poisoning the chosen link), the
// retry walks past it and restores the older generation.
func TestRestartFaultFallsBackDeeper(t *testing.T) {
	cfg := faultConfig()
	cfg.Faults = []faultplan.Fault{
		{Anchor: faultplan.AtCheckpointCommit, N: 2, Kind: faultplan.RankCrash, Delay: 250 * vtime.Microsecond},
		{Anchor: faultplan.AtRestart, N: 1, Kind: faultplan.RankCrash},
	}
	c := New(cfg)
	outcome, err := c.Run()
	if err != nil || outcome != Failed {
		t.Fatalf("Run = %v, %v; want failed outcome", outcome, err)
	}
	err = c.Restart()
	if !errors.Is(err, ErrRestartFault) {
		t.Fatalf("first Restart error = %v, want ErrRestartFault", err)
	}
	if err := c.Restart(); err != nil {
		t.Fatalf("second Restart: %v", err)
	}
	completeWithRecovery(t, c)

	rst := c.Restarts()
	if len(rst) != 1 {
		t.Fatalf("restart records = %d, want 1 (failed attempts do not record)", len(rst))
	}
	r := rst[0]
	if r.FromSeq != 1 || r.FallbackDepth != 1 {
		t.Errorf("restored from #%d depth %d, want #1 depth 1 (checkpoint #2 was poisoned)",
			r.FromSeq, r.FallbackDepth)
	}
	if r.VerifiedPages == 0 {
		t.Error("verification work from the failed attempt was not carried into the record")
	}
	if got, want := c.FinalFingerprint(), faultFreeFingerprint(t, cfg); got != want {
		t.Errorf("final fingerprint %016x differs from fault-free %016x", got, want)
	}
}

// TestRetentionExhaustionNamedError pins the unrecoverable path: with
// only one generation retained and that generation torn, restart has
// nowhere to fall back and must fail with the named sentinel.
func TestRetentionExhaustionNamedError(t *testing.T) {
	cfg := faultConfig()
	cfg.RetainGenerations = 0 // keep only the newest generation
	cfg.Faults = []faultplan.Fault{
		{Anchor: faultplan.AtImageWrite, N: 2, Kind: faultplan.TornWrite},
	}
	c := New(cfg)
	outcome, err := c.Run()
	if err != nil || outcome != Failed {
		t.Fatalf("Run = %v, %v; want failed outcome", outcome, err)
	}
	err = c.Restart()
	if !errors.Is(err, ckptstore.ErrNoVerifiableGeneration) {
		t.Fatalf("Restart error = %v, want ErrNoVerifiableGeneration", err)
	}
	if !strings.Contains(err.Error(), "generations retained") {
		t.Errorf("error %q does not describe the retention window", err)
	}
}

// TestVirtualTimeFaultFiresOnce pins the virtual-time anchor: the crash
// fires at its absolute time, and only once — the restarted timeline
// replays through the firing point without dying again.
func TestVirtualTimeFaultFiresOnce(t *testing.T) {
	cfg := faultConfig()
	cfg.Faults = []faultplan.Fault{
		{Anchor: faultplan.AtVirtualTime, Time: vtime.Time(6 * vtime.Millisecond), Kind: faultplan.RankCrash},
	}
	c := New(cfg)
	completeWithRecovery(t, c)
	if got := len(c.Restarts()); got != 1 {
		t.Errorf("restarts = %d, want exactly 1 (the fault must not re-fire after restart)", got)
	}
	if got, want := c.FinalFingerprint(), faultFreeFingerprint(t, cfg); got != want {
		t.Errorf("final fingerprint %016x differs from fault-free %016x", got, want)
	}
}

// BenchmarkRestartFallback measures the recovery path end to end —
// verification cost included — at increasing fallback depth: a clean
// restart from the newest link, a one-generation fallback past a torn
// link, and a two-deep fallback where the first restart attempt itself
// crashes.
func BenchmarkRestartFallback(b *testing.B) {
	base := DefaultConfig()
	at := vtime.Time(5 * vtime.Millisecond)
	base.Triggers = []Trigger{{At: at}, {At: at, InFlight: true}, {At: at, MidCollective: true}}
	base.Programs = mustPrograms("default", scenario.Params{Ranks: 8, Steps: 30, Seed: 42})
	for _, tc := range []struct {
		name   string
		faults []faultplan.Fault
	}{
		{"depth0", []faultplan.Fault{
			{Anchor: faultplan.AtCheckpointCommit, N: 3, Kind: faultplan.RankCrash, Delay: 250 * vtime.Microsecond},
		}},
		{"depth1-torn", []faultplan.Fault{
			{Anchor: faultplan.AtImageWrite, N: 3, Kind: faultplan.TornWrite},
		}},
		{"depth2-restart-fault", []faultplan.Fault{
			{Anchor: faultplan.AtImageWrite, N: 3, Kind: faultplan.TornWrite},
			{Anchor: faultplan.AtRestart, N: 1, Kind: faultplan.RankCrash},
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := base
				cfg.Faults = tc.faults
				c := New(cfg)
				for {
					outcome, err := c.Run()
					if err != nil {
						b.Fatalf("Run: %v", err)
					}
					if outcome == Completed {
						break
					}
					for {
						err = c.Restart()
						if err == nil {
							break
						}
						if !errors.Is(err, ErrRestartFault) {
							b.Fatalf("Restart: %v", err)
						}
					}
				}
			}
		})
	}
}

// slotTables is a copy of the small slices an image may share with the
// previous rank's slot or with other links.
type slotTables struct {
	comms, reqs []virtid.VID
	ids         []int
	inbox       []netsim.Message
}

func copyTables(img *rank.Image) slotTables {
	return slotTables{slices.Clone(img.Comms), slices.Clone(img.PendingReqs), slices.Clone(img.CommIDs), slices.Clone(img.Inbox)}
}

// TestSharedSlotTablesSurviveFaults: images share equal request FIFOs and
// communicator slot tables with the previous rank's slot, and links
// capture into retired links' arrays, yet image-write damage stays in the
// damaged slot. The overlap workload splits communicators; rank 5 takes a
// torn drain write and two page corruptions while retention recycles
// arrays. At job end every retained image's slot tables and inbox equal a
// copy taken at its commit, and every other rank's images verify and
// digest exactly as in the same run without faults.
func TestSharedSlotTablesSurviveFaults(t *testing.T) {
	const damaged = 5
	cfg := overlapConfig(12, 8)
	cfg.Incremental = true
	cfg.RetainGenerations = 1
	for k := range 12 {
		cfg.Triggers = append(cfg.Triggers, Trigger{At: vtime.Time(k) * vtime.Time(150*vtime.Microsecond),
			InFlight: k%3 == 1, FormingColls: 2 * (k % 3 / 2)})
	}
	run := func(faults []faultplan.Fault) (*Coordinator, map[int][]slotTables) {
		cfg.Faults = faults
		c := New(cfg)
		atCommit := map[int][]slotTables{}
		c.OnDispatch(func(vtime.Time) {
			for seq := range len(c.Records()) + 1 {
				if images := c.store.Images(seq); images != nil && atCommit[seq] == nil {
					for i := range images {
						atCommit[seq] = append(atCommit[seq], copyTables(&images[i]))
					}
				}
			}
		})
		if out, err := c.Run(); err != nil || out != Completed {
			t.Fatalf("Run = %v, %v; want completed", out, err)
		}
		return c, atCommit
	}
	clean, _ := run(nil)
	c, atCommit := run([]faultplan.Fault{
		{Anchor: faultplan.AtImageWrite, Hop: faultplan.HopDrain, N: 6, Kind: faultplan.TornWrite, Rank: damaged},
		{Anchor: faultplan.AtImageWrite, Hop: faultplan.HopDrain, N: 7, Kind: faultplan.PageCorruption, Rank: damaged, Pages: 1},
		{Anchor: faultplan.AtImageWrite, N: 9, Kind: faultplan.PageCorruption, Rank: damaged, Pages: 3},
	})
	recs := c.Records()
	if len(recs) != 12 || recs[5].DrainTornImages != 1 || recs[6].DrainCorruptPages != 1 || recs[8].CorruptPages != 3 {
		t.Fatalf("want 12 checkpoints with the three faults fired, got %d", len(recs))
	}

	var retained, shared int
	var d digester
	for seq := 1; seq <= len(recs); seq++ {
		images, reference := c.store.Images(seq), clean.store.Images(seq)
		if images == nil {
			continue
		}
		retained++
		if atCommit[seq] == nil {
			t.Fatalf("#%d retained but never copied at its commit", seq)
		}
		for i := range images {
			img := &images[i]
			if got, want := fmt.Sprint(copyTables(img)), fmt.Sprint(atCommit[seq][i]); got != want {
				t.Errorf("#%d rank %d slot tables at job end %s, at commit %s", seq, i, got, want)
			}
			if i > 0 && len(img.Comms) > 0 && &img.Comms[0] == &images[i-1].Comms[0] {
				shared++
			}
			_, err := img.Verify()
			if i == damaged {
				if (seq == 6 || seq == 7 || seq == 9) != (err != nil) {
					t.Errorf("#%d damaged rank verifies with %v", seq, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("#%d rank %d: %v", seq, i, err)
			}
			if got, want := d.image(fnv1a.Offset, img), d.image(fnv1a.Offset, &reference[i]); got != want {
				t.Errorf("#%d rank %d digests %x, %x without faults", seq, i, got, want)
			}
		}
	}
	if retained != 8 {
		t.Errorf("%d links retained at job end, want 8 (#1-#4 retired, their arrays recycled)", retained)
	}
	if shared == 0 {
		t.Error("no image shares its communicator table with the previous rank's")
	}
}

// payloadCopy is what one committed image pointed at, and a deep copy of
// it taken at the commit.
type payloadCopy struct {
	mem       *memsim.Snapshot // nil for a delta image
	memCopy   memsim.Snapshot  // the header, its region list and hashes cloned
	virt      *virtid.Snapshot
	virtCopy  virtid.Snapshot // the entry lists cloned
	virtHash  uint64
	stats     *rank.SavedStats
	statsCopy rank.SavedStats
}

func copyPayloads(img *rank.Image) payloadCopy {
	p := payloadCopy{mem: img.Mem, virt: img.Virt, virtCopy: *img.Virt, virtHash: img.Virt.Hash(),
		stats: img.Stats, statsCopy: *img.Stats}
	if img.Mem != nil {
		p.memCopy = *img.Mem
		p.memCopy.Regions = slices.Clone(img.Mem.Regions)
		p.memCopy.RegionHashes = slices.Clone(img.Mem.RegionHashes)
	}
	for k := range p.virtCopy.Entries {
		p.virtCopy.Entries[k] = slices.Clone(img.Virt.Entries[k])
	}
	p.statsCopy.Peers = slices.Clone(img.Stats.Peers)
	return p
}

// changed names the payload of p that no longer equals its copy, or is
// empty.
func (p *payloadCopy) changed() string {
	switch {
	case p.mem != nil && !reflect.DeepEqual(*p.mem, p.memCopy):
		return "memory snapshot header"
	case !reflect.DeepEqual(*p.virt, p.virtCopy) || p.virt.Hash() != p.virtHash:
		return "handle-table snapshot"
	case !reflect.DeepEqual(*p.stats, p.statsCopy):
		return "stats"
	}
	return ""
}

// TestSharedPayloadsStayReadOnly pins the image record's rule: what an
// image points at — its memory snapshot, its handle-table snapshot, its
// stats — is shared with other images and links, and nothing writes it.
// Eight back-to-back checkpoints of the default workload at 16 ranks
// (-incremental -full-every 4) make #5 a full link whose snapshots are
// #1's, shared; a page corruption damages rank 3's image of #5, and a
// crash after #6 makes the restart fall back to #4 (#1 plus three clean
// deltas), whose restored ranks run on over #1's memory. Every payload
// of every image committed in the run, retained or recycled since, must
// end the job equal to its copy taken at the commit and, but for the
// damaged one, verify; the recovered run must end as a fault-free one.
func TestSharedPayloadsStayReadOnly(t *testing.T) {
	const ranks, damaged = 16, 3
	cfg := smallConfig(ranks, 40)
	cfg.Incremental, cfg.FullImageEvery = true, 4
	for range 8 {
		cfg.Triggers = append(cfg.Triggers, Trigger{At: vtime.Time(vtime.Microsecond)})
	}
	cfg.Faults = []faultplan.Fault{
		{Anchor: faultplan.AtImageWrite, N: 5, Kind: faultplan.PageCorruption, Rank: damaged, Pages: 2},
		{Anchor: faultplan.AtCheckpointCommit, N: 6, Kind: faultplan.RankCrash, Delay: 100 * vtime.Microsecond},
	}
	c := New(cfg)
	var copies [][]payloadCopy // per commit, per rank
	c.OnCommit(func(seq int) {
		images := c.store.Images(seq)
		link := make([]payloadCopy, len(images))
		for i := range images {
			link[i] = copyPayloads(&images[i])
		}
		copies = append(copies, link)
		if seq != 5 {
			return
		}
		first := c.store.Images(1)
		for i := range images {
			if i != damaged && images[i].Mem != first[i].Mem {
				t.Fatalf("#5 rank %d does not share #1's snapshot", i)
			}
		}
		if _, err := first[damaged].Verify(); err != nil {
			t.Errorf("the damaged image's twin in #1 fails verification at #5's commit: %v", err)
		}
	})
	completeWithRecovery(t, c)

	recs, rst := c.Records(), c.Restarts()
	if len(copies) < 8 || recs[4].CorruptPages != 2 {
		t.Fatalf("%d checkpoints with %d pages of #5 damaged, want at least 8 and 2", len(copies), recs[4].CorruptPages)
	}
	if len(rst) != 1 || rst[0].FromSeq != 4 || rst[0].CorruptLinks != 1 {
		t.Fatalf("restarts %+v, want one, from #4 past one corrupt link", rst)
	}
	for k, link := range copies {
		for i := range link {
			p := &link[i]
			if what := p.changed(); what != "" {
				t.Errorf("#%d rank %d: the %s changed after the commit", k+1, i, what)
			}
			if p.mem == nil {
				continue
			}
			if _, err := p.mem.Verify(); (err != nil) != (k+1 == 5 && i == damaged) {
				t.Errorf("#%d rank %d: full snapshot verifies with %v", k+1, i, err)
			}
		}
	}
	if got, want := c.FinalFingerprint(), faultFreeFingerprint(t, cfg); got != want {
		t.Errorf("final fingerprint %016x differs from fault-free %016x", got, want)
	}
}
