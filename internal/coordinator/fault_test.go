package coordinator

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"mana/internal/ckptstore"
	"mana/internal/faultplan"
	"mana/internal/scenario"
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

// faultFreeFingerprint runs the same config without any fault plan and
// returns its final application-state fingerprint — the recovery
// contract's reference value.
func faultFreeFingerprint(t *testing.T, cfg Config) uint64 {
	t.Helper()
	cfg.Faults = nil
	cfg.FailAtCheckpoint = 0
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

// TestFaultPlanDeterministicAcrossWorkers is the parallel-scheduler
// contract extended to fault plans: the multi-failure recovery path must
// render byte-identical reports at any islands/workers setting.
func TestFaultPlanDeterministicAcrossWorkers(t *testing.T) {
	plan := []faultplan.Fault{
		{Anchor: faultplan.AtDrainStart, N: 3, Kind: faultplan.RankCrash, Delay: 10 * vtime.Microsecond},
		{Anchor: faultplan.AtImageWrite, N: 3, Kind: faultplan.TornWrite},
		{Anchor: faultplan.AtRestart, N: 2, Kind: faultplan.RankCrash},
	}
	run := func(islands, workers int) (string, uint64) {
		cfg := faultConfig()
		cfg.Faults = plan
		cfg.Islands = islands
		cfg.Workers = workers
		c := New(cfg)
		completeWithRecovery(t, c)
		var buf bytes.Buffer
		c.WriteReport(&buf)
		return buf.String(), c.FinalFingerprint()
	}
	serial, serialFP := run(0, 1)
	parallel, parallelFP := run(8, 4)
	if serial != parallel {
		t.Errorf("multi-failure report differs between serial and islands=8/workers=4:\n--- serial\n%s\n--- parallel\n%s",
			serial, parallel)
	}
	if serialFP != parallelFP {
		t.Errorf("fingerprints differ: serial %016x, parallel %016x", serialFP, parallelFP)
	}
}

// TestLegacyKnobMatchesPlanEquivalent pins the compatibility contract:
// the FailAtCheckpoint/FailDelay pair and the two-line plan
// faultplan.Legacy compiles to must produce byte-identical reports.
func TestLegacyKnobMatchesPlanEquivalent(t *testing.T) {
	run := func(mut func(*Config)) string {
		cfg := faultConfig()
		mut(&cfg)
		c := New(cfg)
		completeWithRecovery(t, c)
		var buf bytes.Buffer
		c.WriteReport(&buf)
		return buf.String()
	}
	legacy := run(func(cfg *Config) {
		cfg.FailAtCheckpoint = 2
		cfg.FailDelay = 250 * vtime.Microsecond
	})
	plan := faultplan.Legacy(2, 250*vtime.Microsecond)
	compiled, err := plan.Compile(8)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	declarative := run(func(cfg *Config) { cfg.Faults = compiled })
	if legacy != declarative {
		t.Errorf("legacy knob and its plan equivalent diverge:\n--- legacy\n%s\n--- plan\n%s", legacy, declarative)
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
	base.Programs = scenario.MustPrograms("default", scenario.Params{Ranks: 8, Steps: 30, Seed: 42})
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
