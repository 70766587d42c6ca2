package virtid

import "testing"

// benchSink defeats dead-code elimination of the lookup results.
var benchSink uint64

// BenchmarkVirtidLookup measures the hot-path Lookup on one goroutine,
// the only way the simulator calls it. The handle population mirrors a
// rank of a nonblocking-heavy application: a few communicators and
// datatypes plus a window of in-flight requests (hundreds to thousands
// of live requests is routine for the NERSC workloads that exposed the
// lookup cost), all registered before the clock starts. Lookups hit the
// request namespace, the population that grows at scale. The two
// implementations share one table; the subbenchmarks differ only in the
// price a rank is charged, which this measures none of.
func BenchmarkVirtidLookup(b *testing.B) {
	for _, impl := range []Impl{ImplMutex, ImplSharded} {
		b.Run(impl.String(), func(b *testing.B) {
			tab := New(impl)
			for i := 0; i < 4; i++ {
				tab.Register(Comm, Real(0x44000000+i))
				tab.Register(Datatype, Real(0x4c000000+i))
			}
			const handles = 2048 // power of two for cheap masking
			vids := make([]VID, handles)
			for i := range vids {
				vids[i] = tab.Register(Request, Real(0x98000000+i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			var sum uint64
			for i := 0; i < b.N; i++ {
				real, ok := tab.Lookup(Request, vids[i&(handles-1)])
				if !ok {
					b.Fatal("lookup miss on a registered handle")
				}
				sum += uint64(real)
			}
			benchSink += sum
		})
	}
}

// BenchmarkVirtidRequestChurn measures the write path every nonblocking
// operation pays: register a request, resolve it once (the wait),
// deregister it — with one older request still in flight, so the window
// shifts rather than empties.
func BenchmarkVirtidRequestChurn(b *testing.B) {
	tab := New(ImplSharded)
	oldest := tab.Register(Request, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := tab.Register(Request, Real(i))
		if _, ok := tab.Lookup(Request, oldest); !ok {
			b.Fatal("request did not resolve")
		}
		tab.Deregister(Request, oldest)
		oldest = v
	}
}
