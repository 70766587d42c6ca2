package coordinator

import (
	"io"
	"testing"
)

// completedRun returns a finished default run to render reports from.
func completedRun(tb testing.TB) *Coordinator {
	tb.Helper()
	c := New(DefaultConfig())
	if _, err := c.Run(); err != nil {
		tb.Fatalf("Run: %v", err)
	}
	return c
}

// TestWriteReportAllocsPinned pins the point of streaming the report:
// rendering into a sink (a hash, a file, a pooled buffer) must allocate
// no more than assembling the whole report as a string.
func TestWriteReportAllocsPinned(t *testing.T) {
	c := completedRun(t)
	stream := testing.AllocsPerRun(20, func() { c.WriteReport(io.Discard) })
	str := testing.AllocsPerRun(20, func() { _ = c.Report() })
	t.Logf("WriteReport(io.Discard): %.0f allocs/op, into a string: %.0f allocs/op", stream, str)
	if stream > str {
		t.Errorf("WriteReport allocates %.0f/op, more than a string's %.0f/op", stream, str)
	}
}

// BenchmarkWriteReport prices rendering into a sink and into a string.
func BenchmarkWriteReport(b *testing.B) {
	c := completedRun(b)
	b.Run("writer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.WriteReport(io.Discard)
		}
	})
	b.Run("string", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = c.Report()
		}
	})
}
