package coordinator

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"mana/internal/ckptstore"
	"mana/internal/faultplan"
	"mana/internal/storage"
	"mana/internal/vtime"
)

// stagedConfig is the staged-pipeline counterpart of faultConfig: free
// (instantaneous) burst-buffer staging over a fast PFS, with spaced-out
// triggers so each generation's drain completes before the next commits.
// Probed timings for the incremental default workload under it:
// #1 safe@2.17ms durable@3.29ms, #2 safe@4.14ms durable@+512ns,
// #3 safe@5.686ms durable@+1.5µs — a crash 1µs after commit #3 lands
// with #3 staged but not yet durable while #1 and #2 are durable.
func stagedConfig() Config {
	cfg := DefaultConfig()
	cfg.Incremental = true
	cfg.FullImageEvery = 0
	cfg.Triggers = []Trigger{
		{At: vtime.Time(2 * vtime.Millisecond)},
		{At: vtime.Time(4 * vtime.Millisecond)},
		{At: vtime.Time(5500 * vtime.Microsecond)},
	}
	cfg.Storage = storage.Config{
		PFSBandwidth: 64e9,
		Staging:      true,
		BBBandwidth:  0,
		BBCapacity:   512 << 20,
	}
	return cfg
}

// TestPFSContentionEmergesInWriteTimes pins the tentpole's core model
// change: with direct writes to a shared PFS, rank write times spread out
// because requests queue on the contended aggregate bandwidth — the
// slowest write is several service times, not one — and the queueing is
// accounted as PFSWait. No RNG draws are involved.
func TestPFSContentionEmergesInWriteTimes(t *testing.T) {
	cfg := faultConfig()
	c := New(cfg)
	if _, err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	recs := c.Records()
	if len(recs) == 0 {
		t.Fatal("no checkpoints committed")
	}
	rec := recs[0]
	if rec.PFSWait == 0 {
		t.Error("PFSWait = 0: eight concurrent writers on a shared PFS must queue")
	}
	// One rank's uncontended service time: its share of the payload over
	// the full aggregate bandwidth. The slowest writer queues behind the
	// other seven, so its write time must exceed several service times.
	service := vtime.DurationOf(float64(rec.ImageBytes) / float64(cfg.Ranks) / cfg.Storage.PFSBandwidth)
	if rec.MaxWriteTime < 4*service {
		t.Errorf("MaxWriteTime = %v, want >= 4x the uncontended per-rank service time %v (stragglers must emerge from contention)",
			rec.MaxWriteTime, service)
	}
	if rec.DurableAt != rec.SafeAt.Add(rec.MaxWriteTime) {
		t.Errorf("direct writes are durable when written: DurableAt = %v, want %v",
			rec.DurableAt, rec.SafeAt.Add(rec.MaxWriteTime))
	}
}

// TestStagedCompressedBeatsDirect is the issue's acceptance bar: on the
// default incremental workload, the staged+compressed pipeline must
// reduce every checkpoint's MaxWriteTime measurably versus direct
// contended PFS writes, with the compression accounted (bytes saved,
// CPU charged).
func TestStagedCompressedBeatsDirect(t *testing.T) {
	run := func(profile string) []CheckpointRecord {
		spec, ok := storage.Profile(profile)
		if !ok {
			t.Fatalf("profile %q missing", profile)
		}
		st, err := storage.Compile(spec)
		if err != nil {
			t.Fatalf("compile %q: %v", profile, err)
		}
		cfg := faultConfig()
		cfg.Incremental = true
		cfg.FullImageEvery = 4
		cfg.Storage = st
		c := New(cfg)
		if _, err := c.Run(); err != nil {
			t.Fatalf("Run(%s): %v", profile, err)
		}
		return c.Records()
	}
	direct := run("direct")
	staged := run("staged")
	compressed := run("staged-compressed")
	if len(direct) != 3 || len(staged) != 3 || len(compressed) != 3 {
		t.Fatalf("checkpoint counts differ: direct=%d staged=%d compressed=%d",
			len(direct), len(staged), len(compressed))
	}
	for i := range direct {
		d, s, sc := direct[i], staged[i], compressed[i]
		if s.MaxWriteTime >= d.MaxWriteTime {
			t.Errorf("#%d: staged MaxWriteTime %v not below direct %v", i+1, s.MaxWriteTime, d.MaxWriteTime)
		}
		if sc.MaxWriteTime >= d.MaxWriteTime {
			t.Errorf("#%d: staged-compressed MaxWriteTime %v not below direct %v", i+1, sc.MaxWriteTime, d.MaxWriteTime)
		}
		if sc.MaxWriteTime > s.MaxWriteTime {
			t.Errorf("#%d: compression increased commit time: %v > %v (fewer staged bytes must not write slower)",
				i+1, sc.MaxWriteTime, s.MaxWriteTime)
		}
	}
	// The first checkpoint is a full image — exempt from compression.
	if compressed[0].StoredBytes != compressed[0].ImageBytes || compressed[0].CompressSavedBytes != 0 {
		t.Errorf("full image was compressed: stored=%d written=%d saved=%d",
			compressed[0].StoredBytes, compressed[0].ImageBytes, compressed[0].CompressSavedBytes)
	}
	// Delta checkpoints compress where they carry dirty page payload. A
	// delta of pure in-flight message bytes (DirtyBytes == 0) gives the
	// per-page compressor nothing to shrink and must charge nothing.
	var sawCompressed bool
	for _, rec := range compressed[1:] {
		if rec.CompressSavedBytes != rec.ImageBytes-rec.StoredBytes {
			t.Errorf("#%d: CompressSavedBytes = %d, want %d", rec.Seq, rec.CompressSavedBytes, rec.ImageBytes-rec.StoredBytes)
		}
		if staged[rec.Seq-1].StoredBytes != staged[rec.Seq-1].ImageBytes {
			t.Errorf("#%d: uncompressed staged run altered stored bytes", rec.Seq)
		}
		if rec.DirtyBytes == 0 {
			if rec.CompressSavedBytes != 0 || rec.CompressTime != 0 {
				t.Errorf("#%d: compressed a delta with no dirty pages: saved=%d cpu=%v",
					rec.Seq, rec.CompressSavedBytes, rec.CompressTime)
			}
			continue
		}
		sawCompressed = true
		if rec.StoredBytes >= rec.ImageBytes {
			t.Errorf("#%d: delta not compressed: stored %d >= written %d", rec.Seq, rec.StoredBytes, rec.ImageBytes)
		}
		if rec.CompressTime == 0 {
			t.Errorf("#%d: compression charged no CPU time", rec.Seq)
		}
	}
	if !sawCompressed {
		t.Error("no delta checkpoint carried dirty pages — the workload no longer exercises compression")
	}
}

// TestBurstBufferSpillWritesThrough pins the capacity bound: payload
// beyond the buffer's free space writes through synchronously to the
// contended PFS, and the split is accounted exactly.
func TestBurstBufferSpillWritesThrough(t *testing.T) {
	cfg := faultConfig()
	cfg.Storage = storage.Config{
		PFSBandwidth: 16e9,
		Staging:      true,
		BBBandwidth:  8e9,
		BBCapacity:   4 << 20, // ~9 MB per-rank images: over half spills
	}
	c := New(cfg)
	if _, err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, rec := range c.Records() {
		if rec.SpilledBytes == 0 {
			t.Errorf("#%d: nothing spilled from a 4 MiB buffer holding ~9 MiB images", rec.Seq)
		}
		if rec.StagedBytes+rec.SpilledBytes != rec.StoredBytes {
			t.Errorf("#%d: staged %d + spilled %d != stored %d",
				rec.Seq, rec.StagedBytes, rec.SpilledBytes, rec.StoredBytes)
		}
	}
	// The first checkpoint sees an empty buffer, so it must stage up to
	// capacity before spilling. Later checkpoints may find the buffer
	// still full of undrained bytes and legitimately spill everything.
	if c.Records()[0].StagedBytes == 0 {
		t.Error("#1: an empty buffer staged nothing before spilling")
	}
}

// TestMidDrainCrashFallsBackToDurable is the issue's acceptance
// scenario: a crash lands 1µs after checkpoint #3 commits — staged into
// the burst buffer, drain still in flight — so the newest link is
// buffer-only. Restart must skip it on metadata alone (the buffer died
// with the node), land on the newest durable generation #2, and replay
// to the fault-free fingerprint.
func TestMidDrainCrashFallsBackToDurable(t *testing.T) {
	faults := []faultplan.Fault{
		{Anchor: faultplan.AtCheckpointCommit, N: 3, Kind: faultplan.RankCrash, Delay: 1 * vtime.Microsecond},
	}
	cfg := stagedConfig()
	cfg.Faults = faults
	c := New(cfg)
	completeWithRecovery(t, c)

	recs := c.Records()
	if len(recs) != 3 {
		t.Fatalf("checkpoints = %d, want 3 (the owed #3 must re-commit after restart)", len(recs))
	}
	// The pre-crash #3 was staged but not durable when the crash fired.
	if crashAt := recs[2].SafeAt.Add(1 * vtime.Microsecond); !(recs[2].DurableAt > crashAt) {
		t.Fatalf("scenario drifted: #3 durable@%v, crash@%v — the crash must pre-empt the drain", recs[2].DurableAt, crashAt)
	}
	rst := c.Restarts()
	if len(rst) != 1 {
		t.Fatalf("restarts = %d, want 1", len(rst))
	}
	r := rst[0]
	if r.BufferOnlyLinks != 1 {
		t.Errorf("BufferOnlyLinks = %d, want 1 (the staged-not-durable #3)", r.BufferOnlyLinks)
	}
	if r.FromSeq != 2 || r.FallbackDepth != 1 {
		t.Errorf("restored from #%d depth %d, want the newest durable generation #2 at depth 1", r.FromSeq, r.FallbackDepth)
	}
	if got, want := c.FinalFingerprint(), faultFreeFingerprint(t, cfg); got != want {
		t.Errorf("final fingerprint %016x differs from fault-free %016x", got, want)
	}

	if report := c.Report(); !strings.Contains(report, "buffer-only-links=1") {
		t.Errorf("report does not account the buffer-only link:\n%s", report)
	}
}

// TestDrainHopTornSurfacesAtRestart pins the drain-hop fault path: a
// torn buffer→PFS drain damages checkpoint #2's durable copy without
// touching the staged payload the commit digested, so nothing notices
// until restart verification walks the delta chain, rejects the torn
// link, and falls back to the full image at #1.
func TestDrainHopTornSurfacesAtRestart(t *testing.T) {
	cfg := stagedConfig()
	cfg.Faults = []faultplan.Fault{
		{Anchor: faultplan.AtImageWrite, Hop: faultplan.HopDrain, N: 2, Kind: faultplan.TornWrite},
		{Anchor: faultplan.AtCheckpointCommit, N: 3, Kind: faultplan.RankCrash, Delay: 100 * vtime.Microsecond},
	}
	c := New(cfg)
	completeWithRecovery(t, c)

	recs := c.Records()
	if len(recs) != 3 {
		t.Fatalf("checkpoints = %d, want 3", len(recs))
	}
	if recs[1].DrainTornImages != 1 {
		t.Errorf("#2 DrainTornImages = %d, want 1", recs[1].DrainTornImages)
	}
	if recs[1].TornImages != 0 {
		t.Errorf("#2 TornImages = %d, want 0 (the stage-hop write was clean)", recs[1].TornImages)
	}
	rst := c.Restarts()
	if len(rst) != 1 {
		t.Fatalf("restarts = %d, want 1", len(rst))
	}
	// #3 is a delta whose chain runs through the torn #2, so the walk
	// falls back to the full image at #1.
	if r := rst[0]; r.FromSeq != 1 || r.FallbackDepth != 2 || r.TornLinks != 1 {
		t.Errorf("restored from #%d depth %d torn-links %d, want #1 / 2 / 1", r.FromSeq, r.FallbackDepth, r.TornLinks)
	}
	want := faultFreeFingerprint(t, func() Config { cfg := stagedConfig(); return cfg }())
	if got := c.FinalFingerprint(); got != want {
		t.Errorf("final fingerprint %016x differs from fault-free %016x", got, want)
	}
}

// TestUnrecoverableRestartExplainsEveryLink pins what a restart that finds
// nothing to restore says: every retained link, newest first, each with
// the reason the verification walk rejected it — here one whose burst-
// buffer copies never reached the PFS, one torn on the drain hop and one
// corrupted on it — in an error that still is ckptstore.ErrNoVerifiableGeneration.
func TestUnrecoverableRestartExplainsEveryLink(t *testing.T) {
	cfg := stagedConfig()
	cfg.Incremental = false // three full images: three generations
	cfg.RetainGenerations = 2
	cfg.Faults = []faultplan.Fault{
		{Anchor: faultplan.AtImageWrite, Hop: faultplan.HopDrain, N: 1, Kind: faultplan.PageCorruption, Rank: 3, Pages: 1},
		{Anchor: faultplan.AtImageWrite, Hop: faultplan.HopDrain, N: 2, Kind: faultplan.TornWrite, Rank: 5},
		{Anchor: faultplan.AtCheckpointCommit, N: 3, Kind: faultplan.RankCrash, Delay: 1 * vtime.Microsecond},
	}
	c := New(cfg)
	if out, err := c.Run(); err != nil || out != Failed {
		t.Fatalf("Run = %v, %v; want the injected crash", out, err)
	}
	err := c.Restart()
	if !errors.Is(err, ckptstore.ErrNoVerifiableGeneration) {
		t.Fatalf("Restart error = %v, want ckptstore.ErrNoVerifiableGeneration", err)
	}
	lines := strings.Split(err.Error(), "\n")
	if len(lines) != 4 {
		t.Fatalf("error has %d lines, want a summary and one line per link:\n%v", len(lines), err)
	}
	img := &c.store.Images(2)[5]
	recs := c.Records()
	for i, want := range []string{
		"coordinator: 3 generations retained, newest committed #3: " + ckptstore.ErrNoVerifiableGeneration.Error(),
		fmt.Sprintf("  #3: buffer-only: %d of %d ranks' images were still in the node burst buffers when the job died; the last drain to the PFS was due @%v",
			cfg.Ranks, cfg.Ranks, recs[2].DurableAt),
		fmt.Sprintf("  #2: rank 5: image for checkpoint #2 is torn: %d of %d bytes written", img.WrittenBytes, img.Bytes()),
		`  #1: rank 3: image for checkpoint #1 is corrupt: memsim: region "app.state" content hash `,
	} {
		if !strings.HasPrefix(lines[i], want) || (i < 3 && lines[i] != want) {
			t.Errorf("line %d:\n got %q\nwant %q", i, lines[i], want)
		}
	}

	// The deltas chained onto a rejected full image are accounted for too.
	cfg = faultConfig()
	cfg.Incremental = true
	cfg.RetainGenerations = 0
	cfg.Faults = []faultplan.Fault{
		{Anchor: faultplan.AtImageWrite, N: 1, Kind: faultplan.PageCorruption, Rank: 2, Pages: 1},
		{Anchor: faultplan.AtCheckpointCommit, N: 3, Kind: faultplan.RankCrash, Delay: 250 * vtime.Microsecond},
	}
	c = New(cfg)
	if out, err := c.Run(); err != nil || out != Failed {
		t.Fatalf("Run = %v, %v; want the injected crash", out, err)
	}
	err = c.Restart()
	if !errors.Is(err, ckptstore.ErrNoVerifiableGeneration) {
		t.Fatalf("Restart error = %v, want ckptstore.ErrNoVerifiableGeneration", err)
	}
	for _, want := range []string{
		"\n  #3: not examined: a delta whose chain starts at rejected #1",
		"\n  #2: not examined: a delta whose chain starts at rejected #1",
		"\n  #1: rank 2: image for checkpoint #1 is corrupt: memsim: region ",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error does not say %q:\n%v", want, err)
		}
	}
	if strings.Index(err.Error(), "#3") > strings.Index(err.Error(), "#2: not") {
		t.Errorf("links are not listed newest first:\n%v", err)
	}

	// And so is a link a crashed restart attempt destroyed.
	cfg = faultConfig()
	cfg.RetainGenerations = 0
	cfg.Faults = []faultplan.Fault{
		{Anchor: faultplan.AtCheckpointCommit, N: 2, Kind: faultplan.RankCrash, Delay: 250 * vtime.Microsecond},
		{Anchor: faultplan.AtRestart, N: 1, Kind: faultplan.RankCrash},
	}
	c = New(cfg)
	if out, err := c.Run(); err != nil || out != Failed {
		t.Fatalf("Run = %v, %v; want the injected crash", out, err)
	}
	if err := c.Restart(); !errors.Is(err, ErrRestartFault) {
		t.Fatalf("first Restart error = %v, want ErrRestartFault", err)
	}
	err = c.Restart()
	if want := "\n  #2: poisoned: restart attempt 1 crashed while reading it (injected restart fault)"; !errors.Is(err, ckptstore.ErrNoVerifiableGeneration) || !strings.HasSuffix(err.Error(), want) {
		t.Errorf("second Restart error = %v, want ckptstore.ErrNoVerifiableGeneration ending %q", err, want)
	}
}
