package rank

import (
	"runtime"
	"testing"

	"mana/internal/kernelsim"
	"mana/internal/scenario"
	"mana/internal/virtid"
	"mana/internal/vtime"
)

// benchCheckpointCapture measures steady-state checkpoint capture: one
// executed workload step (which dirties the state region) followed by one
// image capture. The reported image-bytes/op metric is the
// full-vs-incremental bytes written, and the assertions pin the
// incremental mode's costs to O(dirty pages):
// a bounded allocation count and a payload orders of magnitude below the
// address-space size.
func benchCheckpointCapture(b *testing.B, incremental bool) {
	b.ReportAllocs()
	script := make([]scenario.Op, b.N+1)
	for i := range script {
		script[i] = scenario.Op{Kind: scenario.OpCompute, Dur: 10 * vtime.Microsecond}
	}
	net := testNet()
	r := New(0, kernelsim.Patched, virtid.ImplSharded, script)
	r.CaptureImage(incremental) // chain start (always full)
	var imageBytes, fullBytes uint64
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	startAllocs := ms.Mallocs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Execute(net) // one compute step: touches the state region
		img := r.CaptureImage(incremental)
		imageBytes += img.Bytes()
		fullBytes += img.FullBytes()
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	allocsPerOp := float64(ms.Mallocs-startAllocs) / float64(b.N)
	b.ReportMetric(float64(imageBytes)/float64(b.N), "image-bytes/op")
	if incremental {
		if allocsPerOp > 48 {
			b.Errorf("incremental capture = %.1f allocs/op, want O(dirty pages), not O(address space)", allocsPerOp)
		}
		if imageBytes*10 > fullBytes {
			b.Errorf("incremental images %d bytes vs full-equivalent %d: want >=10x reduction",
				imageBytes, fullBytes)
		}
	}
}

func BenchmarkCheckpointCaptureFull(b *testing.B) { benchCheckpointCapture(b, false) }

func BenchmarkCheckpointCaptureIncremental(b *testing.B) { benchCheckpointCapture(b, true) }
