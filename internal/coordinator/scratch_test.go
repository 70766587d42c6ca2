package coordinator

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mana/internal/scenario"
	"mana/internal/vtime"
)

// report drives a config through the full scenario — run, any injected
// failure, restarts — and returns the complete output bytes.
func report(cfg Config) (string, error) {
	var out bytes.Buffer
	c := New(cfg)
	outcome, err := c.Run()
	if err != nil {
		return "", fmt.Errorf("Run: %w", err)
	}
	for outcome == Failed {
		if err := c.Restart(); err != nil {
			return "", fmt.Errorf("Restart: %w", err)
		}
		if outcome, err = c.Run(); err != nil {
			return "", fmt.Errorf("post-restart Run: %w", err)
		}
	}
	c.WriteReport(&out)
	c.Release()
	return out.String(), nil
}

// runToReport is report for the test goroutine, failing t on an error.
func runToReport(t *testing.T, cfg Config) string {
	t.Helper()
	out, err := report(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestScratchReuseByteIdentical pins that a shared Scratch, which bench's
// traced passes hand to every job, changes no report byte: a run on one
// must print byte for byte what a run without one prints, whether other
// runs on it came before it or run beside it. The jobs checkpoint three
// times and fill state pages end to end; the crashing ones restart.
func TestScratchReuseByteIdentical(t *testing.T) {
	type shape struct{ incremental, crash bool }
	mk := func(sc *Scratch, sh shape) Config {
		cfg := DefaultConfig()
		cfg.Programs = mustPrograms("default", scenario.Params{Ranks: 8, Steps: 400, Seed: 42})
		at := vtime.Time(vtime.Millisecond)
		cfg.Triggers = []Trigger{{At: at}, {At: at, InFlight: true}, {At: at, MidCollective: true}}
		if sh.crash {
			cfg.Faults = crashAfter(2, 250*vtime.Microsecond)
		}
		cfg.Incremental = sh.incremental
		cfg.Scratch = sc
		return cfg
	}
	noFail, crash, crashIncr := shape{}, shape{crash: true}, shape{incremental: true, crash: true}
	cold := map[shape]string{}
	for _, sh := range []shape{noFail, crash, crashIncr} {
		cold[sh] = runToReport(t, mk(nil, sh))
	}
	if !strings.Contains(cold[crash], "restarts: 1") {
		t.Fatalf("the crashing job never restarted:\n%s", cold[crash])
	}

	sc := NewScratch()
	for i := 0; i < 3; i++ {
		if got := runToReport(t, mk(sc, crash)); got != cold[crash] {
			t.Fatalf("warm run %d diverges from cold run.\n--- warm\n%s\n--- cold\n%s", i, got, cold[crash])
		}
	}

	// Alternating shapes through one scratch: an incremental run between
	// two full-image ones must neither inherit nor leak state.
	if got := runToReport(t, mk(sc, crashIncr)); got != cold[crashIncr] {
		t.Fatalf("incremental warm run diverges from cold.\n--- warm\n%s\n--- cold\n%s", got, cold[crashIncr])
	}
	if got := runToReport(t, mk(sc, crash)); got != cold[crash] {
		t.Fatalf("full-image run after incremental on shared scratch diverges.\n--- got\n%s\n--- want\n%s", got, cold[crash])
	}

	// One Scratch behind six runs at once, two of each shape. Under -race
	// this is the audit that concurrent runs share no mutable state.
	shared := NewScratch()
	shapes := []shape{noFail, crash, crashIncr, noFail, crash, crashIncr}
	errs := make([]error, len(shapes))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, sh := range shapes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for round := 0; round < 2; round++ {
				got, err := report(mk(shared, sh))
				if err == nil && got != cold[sh] {
					err = fmt.Errorf("round %d diverges from its cold run.\n--- got\n%s\n--- want\n%s", round, got, cold[sh])
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("concurrent run %d (%+v): %v", i, shapes[i], err)
		}
	}
}

// TestScratchReuseAcrossSizes checks that one scratch serves runs of
// different shapes: a small run after a large one (and vice versa)
// prints what it prints without a scratch.
func TestScratchReuseAcrossSizes(t *testing.T) {
	mk := func(sc *Scratch, ranks, groups int) Config {
		cfg := groupedRingConfig(ranks, groups, groupedRingSteps)
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
