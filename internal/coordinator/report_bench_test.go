package coordinator

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"mana/internal/scenario"
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

// chunkRecorder keeps what is written to it and the longest single write.
type chunkRecorder struct {
	bytes.Buffer
	longest int
}

func (w *chunkRecorder) Write(p []byte) (int, error) {
	w.longest = max(w.longest, len(p))
	return w.Buffer.Write(p)
}

// TestRankRowsMatchFmt holds the rank table to the fmt format it was
// printed with: a job whose table passes reportChunk, with "µs" cells
// (two bytes, one rune) among its durations, renders byte for byte as
// fmt would, in writes of at most reportChunk bytes, and a cell wider
// than its column pushes the row right as fmt's does.
func TestRankRowsMatchFmt(t *testing.T) {
	for _, cell := range []string{"", "7", "24.532µs", "1h2m3.000004005s", "18446744073709551615", "µµµµµµµµµµµµµµµµµµ"} {
		for _, width := range []int{4, 16} {
			if got, want := string(appendRight(nil, []byte(cell), width)), fmt.Sprintf("%*s", width, cell); got != want {
				t.Errorf("appendRight(%q, %d) = %q, fmt pads it to %q", cell, width, got, want)
			}
		}
	}
	const ranks = 1024
	cfg := BaseConfig()
	cfg.Ranks = ranks
	cfg.Programs = mustPrograms("default", scenario.Params{Ranks: ranks, Steps: 5, Seed: 42})
	c := New(cfg)
	if _, err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var want bytes.Buffer
	for _, r := range c.ranks {
		st := r.Stats()
		fmt.Fprintf(&want, "  %4d %16v %10d %6d %6d %6d %14v %14v\n",
			r.ID(), r.Clock().Now(), st.MPICalls, st.MsgsSent, st.MsgsRecvd,
			st.Collectives, st.ManaOverhead, r.CkptOverhead())
	}
	if want.Len() <= reportChunk || !bytes.Contains(want.Bytes(), []byte("µs")) {
		t.Fatalf("the table is %d bytes (µs cells: %v); the test needs more than %d and µs cells",
			want.Len(), bytes.Contains(want.Bytes(), []byte("µs")), reportChunk)
	}
	var got chunkRecorder
	c.writeRankRows(&got)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("the rank table differs from fmt's rendering of it")
	}
	if got.longest > reportChunk {
		t.Errorf("one write of %d bytes, more than reportChunk (%d)", got.longest, reportChunk)
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
