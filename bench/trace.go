package main

import (
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// span is one timed call into a layer. Parent is the index of the span
// that caused it (-1 for the workload root); every span of one
// simulation shares its Job id (-1 outside any job). Times are
// nanoseconds since the trace began. Bytes and Mallocs are
// runtime.MemStats deltas (TotalAlloc, Mallocs) across the span.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	Job     int    `json:"job"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Bytes   uint64 `json:"alloc_bytes"`
	Mallocs uint64 `json:"mallocs"`
}

func (s span) seconds() float64 { return float64(s.EndNs-s.StartNs) / 1e9 }

// tracer keeps spans in memory until the workload ends. self is the host
// time spent inside the tracer itself (clock reads and ReadMemStats,
// which stops the world), so the cost of tracing is measured where it is
// paid instead of inferred from two noisy runs.
type tracer struct {
	t0    time.Time
	spans []span
	self  time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index. The allocation counters are
// parked in the span until end replaces them with deltas.
func (t *tracer) begin(name string, parent, job int) int {
	in := time.Now()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Job: job, Bytes: m.TotalAlloc, Mallocs: m.Mallocs})
	start := time.Now()
	t.spans[len(t.spans)-1].StartNs = int64(start.Sub(t.t0))
	t.self += start.Sub(in)
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	end := time.Now()
	s := &t.spans[id]
	s.EndNs = int64(end.Sub(t.t0))
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.Bytes, s.Mallocs = m.TotalAlloc-s.Bytes, m.Mallocs-s.Mallocs
	t.self += time.Since(end)
}

// total sums duration, bytes and mallocs over every span with the name.
func (t *tracer) total(name string) (sec float64, bytes, mallocs uint64) {
	for _, s := range t.spans {
		if s.Name == name {
			sec += s.seconds()
			bytes += s.Bytes
			mallocs += s.Mallocs
		}
	}
	return
}

// seconds sums the duration of every span with the name.
func (t *tracer) seconds(name string) float64 {
	sec, _, _ := t.total(name)
	return sec
}

func (t *tracer) write(path string) error {
	data, err := json.MarshalIndent(struct {
		Spans []span `json:"spans"`
	}{t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
