package vtime

import "testing"

// holdEvent stands in for the scheduler's event: eight bytes, no pointer.
type holdEvent struct{ arg, aux int32 }

// BenchmarkEventQueueHold is the classic hold model of a discrete-event
// simulator: the queue sits at a fixed population, and each operation
// pops the earliest event and pushes its successor some interval later,
// so ns/op reads as the queue's share of one simulated event. The
// populations are the measured mean queue sizes of four benchmark
// workloads: deep-stencil ~400, ckpt-recover ~1,550, wide-idle ~6,300
// (8,700 at its peak) and ckpt-storm ~27,500 (its drains finish after
// the job, so their events stay queued). The intervals come from a fixed
// table drawn once from a seeded stream, so the loop measures the queue,
// not the generator.
//
// The uniform cases draw intervals from 1-4,000 ns. The deep-mix case
// draws them from deep-stencil's measured push-delta mix instead: 14.6 %
// at +0 (a rank ready again at once), 2.3 % at +128-255 ns, 15.6 % at
// +0.5-2 us, 53.9 % at +4-8 us and 13.5 % at +262-524 us. A radix queue
// pays per bit of distance an event travels, so the two mixes rank it
// differently against a comparison heap; both stay visible.
func BenchmarkEventQueueHold(b *testing.B) {
	const span = 1 << 12
	uniform, deepMix := make([]Duration, span), make([]Duration, span)
	rng := NewRNG(7)
	for i := range uniform {
		uniform[i] = Duration(1 + rng.Intn(4000))
	}
	for i := range deepMix {
		deepMix[i] = deepStencilGap(rng)
	}
	for _, c := range []struct {
		name string
		gaps []Duration
		n    int
	}{
		{"n=400", uniform, 400},
		{"n=1500", uniform, 1500},
		{"n=8000", uniform, 8000},
		{"n=27500", uniform, 27500},
		{"deep-mix/n=400", deepMix, 400},
	} {
		b.Run(c.name, func(b *testing.B) {
			q := NewEventQueueSized[holdEvent](c.n)
			for i := 0; i < c.n; i++ {
				q.Push(Time(c.gaps[i%span])*Time(i%7), holdEvent{arg: int32(i)})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t, ev, _ := q.Pop()
				q.Push(t.Add(c.gaps[i&(span-1)]), ev)
			}
		})
	}
}

// deepStencilGap draws one push delta from deep-stencil's measured mix
// (see BenchmarkEventQueueHold), uniform within each band.
func deepStencilGap(rng *RNG) Duration {
	band := func(lo, hi int) Duration { return Duration(lo + rng.Intn(hi-lo+1)) }
	switch x := rng.Intn(1000); {
	case x < 146:
		return 0
	case x < 169:
		return band(128, 255)
	case x < 325:
		return band(500, 2000)
	case x < 864:
		return band(4000, 8000)
	default:
		return band(262000, 524000)
	}
}

// TestDeepStencilGapMix pins the hold benchmark's deep-stencil mix to the
// measured band shares, within a point each.
func TestDeepStencilGapMix(t *testing.T) {
	const draws = 100000
	rng := NewRNG(3)
	var bands [5]int
	for i := 0; i < draws; i++ {
		switch g := deepStencilGap(rng); {
		case g == 0:
			bands[0]++
		case g < 256:
			bands[1]++
		case g <= 2000:
			bands[2]++
		case g <= 8000:
			bands[3]++
		default:
			bands[4]++
		}
	}
	for i, want := range []float64{14.6, 2.3, 15.6, 53.9, 13.5} {
		if got := 100 * float64(bands[i]) / draws; got < want-1 || got > want+1 {
			t.Errorf("band %d holds %.1f %% of draws, want %.1f %%", i, got, want)
		}
	}
}
