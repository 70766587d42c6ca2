package coordinator

import (
	"strings"
	"testing"

	"mana/internal/vtime"
)

// incrementalConfig is the steady-state incremental scenario: the default
// halo-exchange workload with two checkpoints far enough apart that the
// second one sees only the state touched in between.
func incrementalConfig(ranks, steps int) Config {
	cfg := smallConfig(ranks, steps)
	cfg.Incremental = true
	cfg.Triggers = []Trigger{
		{At: vtime.Time(1 * vtime.Millisecond)},
		{At: vtime.Time(3 * vtime.Millisecond)},
	}
	return cfg
}

// TestIncrementalCheckpointBytes10x is the acceptance criterion for the
// incremental pipeline: on the default workload, a steady-state
// incremental checkpoint writes at least 10x fewer image bytes than the
// full images it replaces — the workload touches its state region and
// grows the heap, not the text/libc mappings that dominate a full image.
func TestIncrementalCheckpointBytes10x(t *testing.T) {
	c := New(incrementalConfig(8, 30))
	outcome, err := c.Run()
	if err != nil || outcome != Completed {
		t.Fatalf("Run = %v, %v", outcome, err)
	}
	recs := c.Records()
	if len(recs) != 2 {
		t.Fatalf("checkpoints = %d, want 2", len(recs))
	}
	first, second := recs[0], recs[1]
	if first.FullImages != 8 || first.DeltaImages != 0 {
		t.Fatalf("first checkpoint images = %dF+%dD, want all full", first.FullImages, first.DeltaImages)
	}
	if second.DeltaImages != 8 || second.FullImages != 0 {
		t.Fatalf("second checkpoint images = %dF+%dD, want all delta", second.FullImages, second.DeltaImages)
	}
	if second.ImageBytes == 0 {
		t.Fatal("second checkpoint wrote nothing; the workload must have touched memory")
	}
	if second.ImageBytes*10 > second.FullBytes {
		t.Errorf("incremental checkpoint wrote %d bytes vs %d full-equivalent: want >=10x fewer",
			second.ImageBytes, second.FullBytes)
	}
	if second.ImageBytes*10 > first.ImageBytes {
		t.Errorf("incremental checkpoint wrote %d bytes vs first full checkpoint's %d: want >=10x fewer",
			second.ImageBytes, first.ImageBytes)
	}
	// Dirty accounting must be internally consistent: written = dirty -
	// dedup plus the layout-only payloads (drained inbox bytes are zero
	// here; there is no in-flight trigger).
	if second.DirtyBytes < second.ImageBytes {
		t.Errorf("dirty bytes %d below written bytes %d", second.DirtyBytes, second.ImageBytes)
	}
	if second.DirtyBytes-second.DedupBytes != second.ImageBytes {
		t.Errorf("dirty(%d) - dedup(%d) != written(%d)", second.DirtyBytes, second.DedupBytes, second.ImageBytes)
	}
	// The incremental write must also be reflected in the straggler-
	// modelled commit time: writing ~100x fewer bytes cannot take as long
	// as the full-image generation did.
	if second.MaxWriteTime >= first.MaxWriteTime {
		t.Errorf("incremental slowest write %v not below full-image %v", second.MaxWriteTime, first.MaxWriteTime)
	}
}

// TestIncrementalRestartBitIdentical is the tentpole determinism pin:
// fail after a chain of checkpoints (full + deltas), restart by
// materialising the chain, run to completion — and end bit-identical to
// both a full-image checkpointed run and an uncheckpointed one. A
// post-restart trigger additionally pins the chain-restart rule: the
// first checkpoint after restart is full again.
func TestIncrementalRestartBitIdentical(t *testing.T) {
	base := smallConfig(8, 12)

	mk := func(incremental bool) Config {
		cfg := base
		cfg.Incremental = incremental
		cfg.FullImageEvery = 0 // unbounded chain: every post-base image is a delta
		cfg.Triggers = []Trigger{
			{At: vtime.Time(500 * vtime.Microsecond)},
			{At: vtime.Time(1 * vtime.Millisecond)},
			{At: vtime.Time(1 * vtime.Millisecond), MidCollective: true},
			{At: vtime.Time(2500 * vtime.Microsecond)}, // fires only in the restarted timeline
		}
		cfg.Faults = crashAfter(3, 100*vtime.Microsecond)
		return cfg
	}

	run := func(cfg Config) *Coordinator {
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
		return c
	}

	incr := run(mk(true))
	full := run(mk(false))
	plain := New(base)
	if outcome, err := plain.Run(); err != nil || outcome != Completed {
		t.Fatalf("uncheckpointed run = %v, %v", outcome, err)
	}

	// The pre-failure chain must really have been incremental: one full
	// generation, then deltas.
	recs := incr.Records()
	if len(recs) < 4 {
		t.Fatalf("checkpoints = %d, want 4 (three pre-failure + one post-restart)", len(recs))
	}
	if recs[0].DeltaImages != 0 || recs[1].FullImages != 0 || recs[2].FullImages != 0 {
		t.Errorf("chain modes wrong: #1=%dF+%dD #2=%dF+%dD #3=%dF+%dD, want full then deltas",
			recs[0].FullImages, recs[0].DeltaImages, recs[1].FullImages, recs[1].DeltaImages,
			recs[2].FullImages, recs[2].DeltaImages)
	}
	if recs[3].DeltaImages != 0 {
		t.Errorf("post-restart checkpoint has %d delta images; restart must begin a fresh chain", recs[3].DeltaImages)
	}

	for i := range plain.Ranks() {
		pr, ir, fr := plain.Ranks()[i], incr.Ranks()[i], full.Ranks()[i]
		if pt, it := pr.Clock().Now(), ir.Clock().Now(); pt != it {
			t.Errorf("rank %d final vtime: uncheckpointed %v vs incremental-restarted %v", i, pt, it)
		}
		if ps, is := pr.Stats(), ir.Stats(); ps != is {
			t.Errorf("rank %d stats diverge:\n  uncheckpointed %+v\n  incremental    %+v", i, ps, is)
		}
		if fs, is := fr.Stats(), ir.Stats(); fs != is {
			t.Errorf("rank %d stats diverge between full and incremental restarts", i)
		}
	}
	pf, if_, ff := plain.FinalFingerprint(), incr.FinalFingerprint(), full.FinalFingerprint()
	if pf != if_ || pf != ff {
		t.Errorf("final fingerprints diverge: plain %016x, incremental %016x, full %016x", pf, if_, ff)
	}
}

// TestFullImageCadence pins Config.FullImageEvery: with N=2 the chain
// never exceeds two links — full, delta, full, delta — so a restart never
// reads more than two generations.
func TestFullImageCadence(t *testing.T) {
	cfg := smallConfig(4, 30)
	cfg.Incremental = true
	cfg.FullImageEvery = 2
	cfg.Triggers = []Trigger{
		{At: vtime.Time(500 * vtime.Microsecond)},
		{At: vtime.Time(1500 * vtime.Microsecond)},
		{At: vtime.Time(2500 * vtime.Microsecond)},
		{At: vtime.Time(3500 * vtime.Microsecond)},
	}
	c := New(cfg)
	outcome, err := c.Run()
	if err != nil || outcome != Completed {
		t.Fatalf("Run = %v, %v", outcome, err)
	}
	recs := c.Records()
	if len(recs) != 4 {
		t.Fatalf("checkpoints = %d, want 4", len(recs))
	}
	wantFull := []bool{true, false, true, false}
	for i, rec := range recs {
		gotFull := rec.FullImages == cfg.Ranks && rec.DeltaImages == 0
		gotDelta := rec.DeltaImages == cfg.Ranks && rec.FullImages == 0
		if wantFull[i] && !gotFull {
			t.Errorf("checkpoint #%d = %dF+%dD, cadence wants full", rec.Seq, rec.FullImages, rec.DeltaImages)
		}
		if !wantFull[i] && !gotDelta {
			t.Errorf("checkpoint #%d = %dF+%dD, cadence wants delta", rec.Seq, rec.FullImages, rec.DeltaImages)
		}
	}
}

// TestIncrementalReportByteIdentical extends the determinism guarantee to
// the incremental pipeline's report fields (dirty bytes, dedup ratios,
// delta fingerprints): two identical runs must render identical bytes.
func TestIncrementalReportByteIdentical(t *testing.T) {
	run := func() string {
		cfg := incrementalConfig(8, 12)
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
		t.Errorf("incremental reports differ between identical runs:\n--- run 1\n%s\n--- run 2\n%s", r1, r2)
	}
	if !strings.Contains(r1, "incremental=true") {
		t.Errorf("report does not surface the incremental mode:\n%s", r1)
	}
}
