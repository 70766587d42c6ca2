package vtime

import (
	"testing"
	"testing/quick"
)

func TestDurationConversions(t *testing.T) {
	if got := DurationOf(0.25); got != 250*Millisecond {
		t.Errorf("DurationOf(0.25) = %v, want 250ms", got)
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(5 * Second)
	if t1.Sub(t0) != 5*Second {
		t.Errorf("Sub = %v, want 5s", t1.Sub(t0))
	}
}

func TestClockAdvance(t *testing.T) {
	c := &Clock{now: 0}
	if c.Now() != 0 {
		t.Fatalf("new clock not at 0")
	}
	c.Advance(10 * Microsecond)
	if c.Now() != Time(10*Microsecond) {
		t.Errorf("Advance: now = %v", c.Now())
	}
	// Negative durations must be ignored.
	c.Advance(-Second)
	if c.Now() != Time(10*Microsecond) {
		t.Errorf("negative Advance moved clock to %v", c.Now())
	}
}

func TestClockAdvanceToNeverMovesBackwards(t *testing.T) {
	c := &Clock{now: 100}
	c.AdvanceTo(50)
	if c.Now() != 100 {
		t.Errorf("AdvanceTo moved clock backwards to %v", c.Now())
	}
	c.AdvanceTo(200)
	if c.Now() != 200 {
		t.Errorf("AdvanceTo did not advance, now=%v", c.Now())
	}
}

func TestClockSet(t *testing.T) {
	c := &Clock{now: 500}
	c.Set(5)
	if c.Now() != 5 {
		t.Errorf("Set failed, now=%v", c.Now())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at iteration %d", i)
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Errorf("different seeds produced identical streams")
	}
}

// TestRNGAtMatchesSequentialStream proves the random-access form: for
// any seed, the generator RNGAt(seed, k) returns continues NewRNG(seed)
// from its k-th output on, Uint64 and Jitter alike, including across
// the counter's wrap-around.
func TestRNGAtMatchesSequentialStream(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0x9e3779b97f4a7c15, 1<<63 + 12345, ^uint64(0)} {
		seq := NewRNG(seed)
		for k := uint64(1); k <= 2000; k++ {
			want := seq.Uint64()
			at := RNGAt(seed, k)
			if got := at.Uint64(); got != want {
				t.Fatalf("seed %#x: draw %d = %#x, sequential stream has %#x", seed, k, got, want)
			}
			if k%97 == 0 {
				// The positioned generator keeps going in step.
				next := RNGAt(seed, k+1)
				if a, b := at.Jitter(0.3), next.Jitter(0.3); a != b {
					t.Fatalf("seed %#x: jitter after draw %d = %v, draw %d read directly = %v", seed, k, a, k+1, b)
				}
			}
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(9)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) did not cover range, saw %d values", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Errorf("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGJitterBounds(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 1000; i++ {
		j := r.Jitter(0.05)
		if j < 0.95 || j > 1.05 {
			t.Fatalf("jitter out of bounds: %v", j)
		}
	}
}

// Property: AdvanceTo is monotone — applying any sequence of AdvanceTo calls
// never decreases the clock.
func TestPropertyClockMonotone(t *testing.T) {
	f := func(targets []int64) bool {
		c := &Clock{now: 0}
		prev := c.Now()
		for _, raw := range targets {
			c.AdvanceTo(Time(raw))
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Advance accumulates exactly the sum of the non-negative deltas.
func TestPropertyAdvanceAccumulates(t *testing.T) {
	f := func(deltas []uint16) bool {
		c := &Clock{now: 0}
		var sum int64
		for _, d := range deltas {
			c.Advance(Duration(d))
			sum += int64(d)
		}
		return c.Now() == Time(sum)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStampObserve(t *testing.T) {
	c := &Clock{now: 100}
	s := StampFrom(3, c)
	if s.Rank != 3 || s.When != 100 {
		t.Fatalf("StampFrom = %+v, want rank 3 at 100", s)
	}
	// Observing a later stamp advances; an earlier one never rewinds.
	if got := c.Observe(Stamp{Rank: 1, When: 500}); got != 500 {
		t.Errorf("Observe(500) = %v, want 500", got)
	}
	if got := c.Observe(Stamp{Rank: 1, When: 50}); got != 500 {
		t.Errorf("Observe(50) = %v, want 500 (piggyback must not rewind)", got)
	}
}

func TestMaxStamp(t *testing.T) {
	stamps := []Stamp{{Rank: 0, When: 10}, {Rank: 2, When: 300}, {Rank: 1, When: 200}}
	if got := MaxStamp(stamps); got.Rank != 2 || got.When != 300 {
		t.Errorf("MaxStamp = %+v, want rank 2 at 300", got)
	}
	if got := MaxStamp(nil); got != (Stamp{}) {
		t.Errorf("MaxStamp(nil) = %+v, want zero", got)
	}
}
