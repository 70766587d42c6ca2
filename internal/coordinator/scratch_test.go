package coordinator

import (
	"bytes"
	"strings"
	"testing"

	"mana/internal/scenario"
)

// runToReport drives a config through the full scenario — run, any
// injected failure, restarts — and returns the complete output bytes.
func runToReport(t *testing.T, cfg Config) string {
	t.Helper()
	var out bytes.Buffer
	c := New(cfg)
	outcome, err := c.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for outcome == Failed {
		if err := c.Restart(); err != nil {
			t.Fatalf("Restart: %v", err)
		}
		outcome, err = c.Run()
		if err != nil {
			t.Fatalf("post-restart Run: %v", err)
		}
	}
	c.WriteReport(&out)
	c.Release()
	return out.String()
}

// TestScratchReuseByteIdentical is the warm-path determinism statement:
// a run built on a Scratch that a previous run fed — reused queue
// lanes, rank slices, rendezvous instances, memsim buffers — must print
// byte for byte what a cold run prints. Failure injection and restarts
// are included so the recycled storage crosses the full protocol.
func TestScratchReuseByteIdentical(t *testing.T) {
	mk := func(sc *Scratch, incremental bool) Config {
		cfg := DefaultConfig()
		cfg.FailAtCheckpoint = 2
		cfg.Incremental = incremental
		cfg.Scratch = sc
		return cfg
	}
	cold := runToReport(t, mk(nil, false))

	sc := NewScratch()
	for i := 0; i < 3; i++ {
		if got := runToReport(t, mk(sc, false)); got != cold {
			t.Fatalf("warm run %d diverges from cold run.\n--- warm\n%s\n--- cold\n%s", i, got, cold)
		}
	}

	// Alternating shapes through one scratch: an incremental run between
	// two plain ones must neither inherit nor leak state.
	coldIncr := runToReport(t, mk(nil, true))
	if got := runToReport(t, mk(sc, true)); got != coldIncr {
		t.Fatalf("incremental warm run diverges from cold.\n--- warm\n%s\n--- cold\n%s", got, coldIncr)
	}
	if got := runToReport(t, mk(sc, false)); got != cold {
		t.Fatalf("plain run after incremental on shared scratch diverges.\n--- got\n%s\n--- want\n%s", got, cold)
	}
}

// TestScratchReuseAcrossSizes checks the resize paths: a scratch grown
// by a large run must serve a smaller one (and vice versa) without
// stale state bleeding through.
func TestScratchReuseAcrossSizes(t *testing.T) {
	mk := func(sc *Scratch, ranks, islands int) Config {
		cfg := islandBenchConfig(ranks, islands, 1, islandBenchSteps)
		cfg.Scratch = sc
		return cfg
	}
	big := runToReport(t, mk(nil, 64, 8))
	small := runToReport(t, mk(nil, 8, 2))

	sc := NewScratch()
	if got := runToReport(t, mk(sc, 64, 8)); got != big {
		t.Fatal("cold-scratch big run diverges from scratch-free run")
	}
	if got := runToReport(t, mk(sc, 8, 2)); got != small {
		t.Fatal("small run on big-grown scratch diverges")
	}
	if got := runToReport(t, mk(sc, 64, 8)); got != big {
		t.Fatal("big run on shrunk scratch diverges")
	}
}

// TestScratchMemPoolHits pins that warm runs actually draw from the
// recycled buffer pool — the perf contract, not just correctness. The
// runs are long enough for ranks to fill state pages end to end: only
// full-size page buffers go through the pool.
func TestScratchMemPoolHits(t *testing.T) {
	long := func() Config {
		cfg := DefaultConfig()
		cfg.Programs = scenario.MustPrograms("default", scenario.Params{Ranks: 8, Steps: 400, Seed: 42})
		return cfg
	}
	cfg := long()
	sc := NewScratch()
	cfg.Scratch = sc
	runToReport(t, cfg)
	_, hitsCold := sc.MemStats()

	cfg2 := long()
	cfg2.Scratch = sc
	runToReport(t, cfg2)
	_, hitsWarm := sc.MemStats()
	if hitsWarm <= hitsCold {
		t.Fatalf("warm run recorded no buffer-pool hits (cold=%d, warm=%d)", hitsCold, hitsWarm)
	}
}

// TestWriteReportMatchesReport keeps the two render paths in lockstep.
func TestWriteReportMatchesReport(t *testing.T) {
	cfg := DefaultConfig()
	c := New(cfg)
	if _, err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var buf strings.Builder
	c.WriteReport(&buf)
	if buf.String() != c.Report() {
		t.Fatal("WriteReport and Report render different bytes")
	}
}
