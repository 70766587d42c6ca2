package fleet

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"mana/internal/coordinator"
	"mana/internal/scenario"
	"mana/internal/virtid"
	"mana/internal/vtime"
)

// benchJob is the fleet benchmark workload: the default spec at a size
// where one run is a few milliseconds of real scheduler work, no
// injected failure so iteration time stays uniform.
func benchJob(b *testing.B) (*Engine, coordinator.Config) {
	b.Helper()
	e := NewEngine()
	spec, err := e.LoadSpec("default")
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := e.Config(Job{
		Spec:   spec,
		Ranks:  256,
		Steps:  10,
		Seed:   42,
		Virtid: virtid.ImplSharded,
		CkptAt: vtime.Time(time.Millisecond),
	})
	if err != nil {
		b.Fatal(err)
	}
	return e, cfg
}

// BenchmarkFleetThroughput measures the fleet engine end to end:
// complete simulations per second at pool widths 1, 4 and 8 (runs/sec,
// higher is better), plus allocations per run warm (shared engine,
// pooled page buffers) versus cold (fresh engine every run), which prices
// what the pooling buys.
func BenchmarkFleetThroughput(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e, cfg := benchJob(b)
			for i := 0; i < workers+1; i++ { // warm the page pool and compile cache
				if _, err := e.Run(cfg, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			idx := make(chan int)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range idx {
						if _, err := e.Run(cfg, nil); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			for i := 0; i < b.N; i++ {
				idx <- i
			}
			close(idx)
			wg.Wait()
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "runs/sec")
		})
	}

	b.Run("allocs=warm", func(b *testing.B) {
		e, cfg := benchJob(b)
		if _, err := e.Run(cfg, nil); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Run(cfg, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("allocs=cold", func(b *testing.B) {
		spec, err := scenario.Load("default")
		if err != nil {
			b.Fatal(err)
		}
		job := Job{
			Spec:   spec,
			Ranks:  256,
			Steps:  10,
			Seed:   42,
			Virtid: virtid.ImplSharded,
			CkptAt: vtime.Time(time.Millisecond),
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A fresh engine per run: every allocation and the spec
			// compilation happen cold, the baseline the warm path beats.
			if _, err := NewEngine().RunJob(job, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEndToEnd times what a user of `manasim -ranks N -steps 5
// -no-fail` waits for, with nothing excluded: a cold engine loads and
// compiles the spec, builds every rank, runs the job and renders the
// report bytes. B/rank is everything allocated along the way divided by
// the rank count — construction dominates it, so it is the figure that
// says whether a rank's cost follows what the rank touches.
func BenchmarkEndToEnd(b *testing.B) {
	for _, ranks := range []int{8192, 65536} {
		b.Run(fmt.Sprint(ranks), func(b *testing.B) {
			spec, err := scenario.Load("default")
			if err != nil {
				b.Fatal(err)
			}
			job := Job{
				Spec:   spec,
				Ranks:  ranks,
				Steps:  5,
				Seed:   42,
				Virtid: virtid.ImplSharded,
				CkptAt: vtime.Time(5 * time.Millisecond),
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				report := countingWriter{w: io.Discard}
				if _, err := NewEngine().RunJob(job, &report); err != nil {
					b.Fatal(err)
				}
				if report.n == 0 {
					b.Fatal("no report bytes")
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/float64(ranks), "B/rank")
		})
	}
}
