package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mana/internal/ckptstore"
	"mana/internal/faultplan"
	"mana/internal/scenario"
	"mana/internal/vtime"
)

// randomFaultPlan draws a valid 1–3 fault plan: every anchor, kind and
// parameter range the schema allows, with N values small enough to have
// a chance of landing inside a short job's three-checkpoint window.
func randomFaultPlan(rng *rand.Rand) *faultplan.Plan {
	n := 1 + rng.Intn(3)
	specs := make([]faultplan.Spec, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(5) {
		case 0:
			specs = append(specs, faultplan.Spec{
				At:    "checkpoint-commit",
				N:     1 + rng.Intn(3),
				Kind:  "rank-crash",
				Delay: fmt.Sprintf("%dus", rng.Intn(500)),
			})
		case 1:
			specs = append(specs, faultplan.Spec{
				At:    "drain-start",
				N:     1 + rng.Intn(3),
				Kind:  "rank-crash",
				Delay: fmt.Sprintf("%dus", rng.Intn(100)),
			})
		case 2:
			f := faultplan.Spec{At: "image-write", N: 1 + rng.Intn(3), Rank: rng.Intn(8)}
			if rng.Intn(2) == 0 {
				f.Kind = "torn-write"
				f.Pages = rng.Intn(3) * 16 // 0 = half the payload
			} else {
				f.Kind = "page-corruption"
				f.Pages = 1 + rng.Intn(8)
			}
			specs = append(specs, f)
		case 3:
			specs = append(specs, faultplan.Spec{
				At:   "virtual-time",
				Time: fmt.Sprintf("%dus", 1+rng.Intn(9000)),
				Kind: "rank-crash",
			})
		default:
			specs = append(specs, faultplan.Spec{
				At:   "restart",
				N:    1 + rng.Intn(2),
				Kind: "rank-crash",
			})
		}
	}
	return &faultplan.Plan{Faults: specs, MaxRestarts: 8}
}

// recoverableOrNamed reports whether err is one of the named
// unrecoverable outcomes a random plan may legitimately hit: restart
// budget exhausted, every retained generation unverifiable, or a crash
// before anything committed.
func recoverableOrNamed(err error) bool {
	return errors.Is(err, ErrRestartsExhausted) ||
		errors.Is(err, ckptstore.ErrNoVerifiableGeneration) ||
		strings.Contains(err.Error(), "no committed checkpoint to restart from")
}

// TestRandomFaultPlansPreserveFinalState is the recovery contract as a
// property: for ~200 random valid fault plans over the whole spec
// library, every run that recovers must land on the exact final
// application fingerprint of the fault-free run — at islands=8,
// workers=4, so the parallel scheduler is under the same contract.
// Plans that are legitimately unrecoverable must fail with a named
// error, never a wrong answer.
func TestRandomFaultPlansPreserveFinalState(t *testing.T) {
	specs := scenario.Names()
	if len(specs) < 6 {
		t.Fatalf("spec library has %d specs, want at least 6", len(specs))
	}
	eng := NewEngine()
	job := func(name string) (Job, error) {
		spec, err := eng.LoadSpec(name)
		if err != nil {
			return Job{}, err
		}
		return Job{
			Spec:    spec,
			Ranks:   8,
			Steps:   10,
			Seed:    42,
			CkptAt:  vtime.Time(1 * vtime.Millisecond),
			Islands: 8,
			Workers: 4,
		}, nil
	}
	baseline := make(map[string]uint64, len(specs))
	for _, name := range specs {
		j, err := job(name)
		if err != nil {
			t.Fatalf("spec %s: %v", name, err)
		}
		res, err := eng.RunJob(j, nil)
		if err != nil {
			t.Fatalf("fault-free run of %s: %v", name, err)
		}
		baseline[name] = res.FinalFingerprint
	}

	rng := rand.New(rand.NewSource(1))
	const trials = 200
	var recovered, named int
	for i := 0; i < trials; i++ {
		name := specs[rng.Intn(len(specs))]
		plan := randomFaultPlan(rng)
		j, err := job(name)
		if err != nil {
			t.Fatalf("spec %s: %v", name, err)
		}
		j.Faults = plan
		res, err := eng.RunJob(j, nil)
		if err != nil {
			if !recoverableOrNamed(err) {
				t.Fatalf("trial %d (spec %s, plan %+v): unexpected error: %v", i, name, plan.Faults, err)
			}
			named++
			continue
		}
		recovered++
		if res.FinalFingerprint != baseline[name] {
			t.Errorf("trial %d (spec %s, plan %+v): final fingerprint %016x differs from fault-free %016x",
				i, name, plan.Faults, res.FinalFingerprint, baseline[name])
		}
	}
	// The property is vacuous if nothing recovers; with these N ranges
	// most plans land inside the checkpoint window and recover.
	if recovered < trials/2 {
		t.Errorf("only %d/%d trials recovered (%d failed with named errors) — fault generation drifted out of the useful range",
			recovered, trials, named)
	}
	t.Logf("%d/%d recovered bit-identically, %d unrecoverable with named errors", recovered, trials, named)
}
