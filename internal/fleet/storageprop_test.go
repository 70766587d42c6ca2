package fleet

import (
	"math/rand"
	"testing"

	"mana/internal/scenario"
	"mana/internal/storage"
	"mana/internal/vtime"
)

// randomStorageSpec draws a valid storage configuration from across the
// schema: direct or staged, free or contended tiers, tiny buffers that
// spill most of a checkpoint, and (on incremental jobs only, where it
// has an effect) compression with random cost and per-class ratios.
func randomStorageSpec(rng *rand.Rand, incremental bool) *storage.Spec {
	if rng.Intn(4) == 0 {
		return nil // the default direct-to-PFS model
	}
	s := &storage.Spec{}
	if rng.Intn(2) == 0 {
		bws := []float64{0, 1e9, 8e9, 16e9, 64e9}
		s.PFS = &storage.PFSSpec{AggregateBandwidth: bws[rng.Intn(len(bws))]}
	}
	if rng.Intn(3) > 0 {
		bws := []float64{0, 2e9, 8e9}
		caps := []uint64{1 << 20, 16 << 20, 256 << 20, 1 << 30}
		s.BurstBuffer = &storage.BurstBufferSpec{
			Bandwidth: bws[rng.Intn(len(bws))],
			Capacity:  caps[rng.Intn(len(caps))],
		}
	}
	if incremental && rng.Intn(2) == 0 {
		s.Compression = &storage.CompressionSpec{
			Enabled:       true,
			CostNsPerByte: float64(rng.Intn(10)) / 10,
		}
		if rng.Intn(2) == 0 {
			s.Compressibility = map[string]float64{
				"heap": 0.05 + 0.9*rng.Float64(),
				"data": 0.05 + 0.9*rng.Float64(),
			}
		}
	}
	return s
}

// TestRandomStorageConfigsComplete runs ~60 random storage
// configurations over the spec library: every generated configuration
// validates, and every job under it completes.
func TestRandomStorageConfigsComplete(t *testing.T) {
	specs := scenario.Names()
	if len(specs) == 0 {
		t.Fatal("spec library is empty")
	}
	eng := NewEngine()
	rng := rand.New(rand.NewSource(7))
	const trials = 60
	for i := 0; i < trials; i++ {
		name := specs[rng.Intn(len(specs))]
		spec, err := eng.LoadSpec(name)
		if err != nil {
			t.Fatalf("trial %d: spec %s: %v", i, name, err)
		}
		incr := rng.Intn(2) == 0
		st := randomStorageSpec(rng, incr)
		if st != nil {
			if err := st.Validate(); err != nil {
				t.Fatalf("trial %d: generated an invalid storage spec %+v: %v", i, st, err)
			}
		}
		j := Job{
			Spec:        spec,
			Ranks:       8,
			Steps:       10,
			Seed:        42,
			CkptAt:      vtime.Time(1 * vtime.Millisecond),
			Incremental: incr,
			Storage:     st,
		}
		if _, err := eng.RunJob(j, nil); err != nil {
			t.Fatalf("trial %d (spec %s, storage %+v): %v", i, name, st, err)
		}
	}
}
