package coordinator

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"mana/internal/scenario"
	"mana/internal/vtime"
)

// idleHeavyConfig builds the scheduler-scaling scenario: rank 0 is the
// only busy rank, alternating compute phases with one send to each other
// rank; every other rank posts a single receive and then blocks until
// its message arrives. Under the old full-scan loop every iteration
// visited all N ranks even though N-1 of them were blocked; under event
// dispatch the blocked ranks cost nothing until their delivery events
// fire.
func idleHeavyConfig(ranks int) Config { return idleHeavyRounds(ranks, 1) }

// idleHeavyRounds is idleHeavyConfig with rank 0 going round the other
// ranks the given number of times, each of which posts that many
// receives: the same traffic, repeated.
func idleHeavyRounds(ranks, rounds int) Config {
	cfg := DefaultConfig()
	cfg.Ranks = ranks
	cfg.Triggers = nil
	cfg.Programs = scenario.PerRank(cfg.Ranks, func(id int) []scenario.Op {
		if id == 0 {
			script := make([]scenario.Op, 0, 2*(ranks-1)*rounds)
			for round := 0; round < rounds; round++ {
				for d := 1; d < ranks; d++ {
					script = append(script,
						scenario.Op{Kind: scenario.OpCompute, Dur: 1 * vtime.Microsecond},
						scenario.Op{Kind: scenario.OpSend, Peer: d, Bytes: 1024, Tag: d},
					)
				}
			}
			return script
		}
		script := make([]scenario.Op, rounds)
		for i := range script {
			script[i] = scenario.Op{Kind: scenario.OpRecv, Peer: 0, Tag: id}
		}
		return script
	})
	return cfg
}

// TestBlockedRanksConsumeZeroSchedulerWork pins the core scaling
// property down to an exact visit count: a blocked rank is touched
// exactly twice — once when it posts the receive and blocks, once when
// the delivery event wakes it — no matter how many events the busy rank
// generates in between.
func TestBlockedRanksConsumeZeroSchedulerWork(t *testing.T) {
	const computePhases = 100
	cfg := DefaultConfig()
	cfg.Ranks = 3
	cfg.Triggers = nil
	cfg.Programs = scenario.PerRank(cfg.Ranks, func(id int) []scenario.Op {
		if id == 0 {
			script := make([]scenario.Op, 0, computePhases+2)
			for i := 0; i < computePhases; i++ {
				script = append(script, scenario.Op{Kind: scenario.OpCompute, Dur: 1 * vtime.Microsecond})
			}
			script = append(script,
				scenario.Op{Kind: scenario.OpSend, Peer: 1, Bytes: 64},
				scenario.Op{Kind: scenario.OpSend, Peer: 2, Bytes: 64},
			)
			return script
		}
		return []scenario.Op{{Kind: scenario.OpRecv, Peer: 0}}
	})
	c := New(cfg)
	outcome, err := c.Run()
	if err != nil || outcome != Completed {
		t.Fatalf("Run = %v, %v", outcome, err)
	}
	// rank 0: computePhases + 2 sends; ranks 1 and 2: one blocked receive
	// attempt + one wake each.
	want := uint64(computePhases+2) + 2 + 2
	if got := c.RankVisits(); got != want {
		t.Errorf("rank visits = %d, want exactly %d (blocked ranks must consume zero scheduler work)", got, want)
	}
}

// TestIdleHeavy4096Ranks is the acceptance scenario for the event-driven
// scheduler: 4096 ranks, all but one blocked in a receive, must complete
// well within test timeouts and with at least 10x fewer rank visits than
// the old O(ranks)-per-iteration full scan would have spent.
func TestIdleHeavy4096Ranks(t *testing.T) {
	if testing.Short() {
		t.Skip("4096-rank scenario skipped in -short mode")
	}
	const ranks = 4096
	c := New(idleHeavyConfig(ranks))
	outcome, err := c.Run()
	if err != nil || outcome != Completed {
		t.Fatalf("Run = %v, %v", outcome, err)
	}
	for _, r := range c.Ranks()[1:] {
		if r.Stats().MsgsRecvd != 1 {
			t.Fatalf("rank %d received %d messages, want 1", r.ID(), r.Stats().MsgsRecvd)
		}
	}
	// The old scheduler executed at most one op per rank per iteration
	// and visited every rank on every iteration, so it needed at least
	// (busiest rank's op count) x ranks visits for the same virtual-time
	// span. That is a conservative lower bound: iterations without
	// progress (blocked receives) scanned all ranks too.
	busiest := uint64(2 * (ranks - 1)) // rank 0's script length
	oldScanVisits := busiest * uint64(ranks)
	got := c.RankVisits()
	if got*10 > oldScanVisits {
		t.Errorf("rank visits = %d; old full scan needed >= %d; want at least a 10x reduction", got, oldScanVisits)
	}
	t.Logf("events=%d rank-visits=%d (old full-scan lower bound %d, reduction %.0fx)",
		c.EventsDispatched(), got, oldScanVisits, float64(oldScanVisits)/float64(got))
}

// benchEventLoop measures the event loop end to end on mk(length).
// Setup (rank construction, address-space bookkeeping) is excluded from
// the timing so the numbers track scheduler work, which is the quantity
// that must scale with events rather than ranks.
func benchEventLoop(b *testing.B, mk func(length int) Config, length int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := New(mk(length))
		// Collect construction garbage outside the timed section: rank
		// setup allocates far more than the event loop does, and a GC
		// cycle triggered mid-Run would charge that cleanup to the
		// scheduler numbers.
		runtime.GC()
		b.StartTimer()
		outcome, err := c.Run()
		if err != nil || outcome != Completed {
			b.Fatalf("Run = %v, %v", outcome, err)
		}
		if i == 0 {
			b.ReportMetric(float64(c.RankVisits()), "rank-visits")
			b.ReportMetric(float64(c.EventsDispatched()), "events")
		}
	}
}

// TestSteadyStateAllocatesNothing pins the event loop's steady state at
// no allocation per event. The loop reuses its rendezvous scratch and
// queue storage, a message is a value in its pair's ring, and a window's
// cross-island deliveries are values in reused lane buffers, so once
// every rank's lazily built state exists nothing is allocated per event;
// 0.01 per event leaves room for a queue or table growing late, not for
// anything done per event. It runs the idle-heavy scenario at 512 ranks,
// the stencil spec's halo exchange and allreduces, and the
// island-scaling traffic on 16 lanes.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	// The stencil spec without its heap growth: an sbrk maps a region,
	// an allocation the model asks for rather than one the loop makes.
	stencil := func(steps int) Config {
		cfg := DefaultConfig()
		cfg.Ranks = 64
		cfg.Triggers = nil
		progs := scenario.MustPrograms("stencil", scenario.Params{Ranks: cfg.Ranks, Steps: steps, Seed: 42})
		cfg.Programs = scenario.PerRank(cfg.Ranks, func(id int) []scenario.Op {
			var ops []scenario.Op
			for pc := range progs[id] {
				if op := progs[id][pc].Resolve(id); op.Kind != scenario.OpSbrk {
					ops = append(ops, op)
				}
			}
			return ops
		})
		return cfg
	}
	for _, tc := range []struct {
		name   string
		mk     func(length int) Config
		length int
	}{
		{"idle-heavy-512", func(rounds int) Config { return idleHeavyRounds(512, rounds) }, 1},
		{"stencil-64", stencil, 24},
		{"islands-4096", func(steps int) Config { return islandBenchConfig(4096, 16, 1, steps) }, islandBenchSteps},
	} {
		perEvent := steadyAllocsPerEvent(t, tc.mk, tc.length)
		t.Logf("%s: %.4f allocations/event", tc.name, perEvent)
		if perEvent > 0.01 {
			t.Errorf("%s: steady-state allocations = %.3f/event, want <= 0.01/event", tc.name, perEvent)
		}
	}
}

// steadyAllocsPerEvent is what the allocation test protects: what one
// more event allocates once every rank's lazily built state exists.
// It excludes first touch from the count rather than amortising it: the
// scenario runs (untimed) at the given length and at twice that, and the
// extra allocations are divided by the extra events, so everything a
// rank allocates once — its state page and page table on the first
// write, a pair table on the first send to each destination — cancels,
// however few events per rank the scenario has. Counting Run whole
// charged those to the idle-heavy scenario's four events per rank and
// read 1.5/event with nothing allocating per event.
func steadyAllocsPerEvent(tb testing.TB, mk func(length int) Config, length int) float64 {
	var allocs, events [2]uint64
	var ms runtime.MemStats
	for i, n := range [2]int{length, 2 * length} {
		// The fewest of three runs: whatever else the process allocates
		// meanwhile (the runtime, a test before this one) only adds.
		for try := 0; try < 3; try++ {
			c := New(mk(n))
			runtime.GC()
			runtime.ReadMemStats(&ms)
			start := ms.Mallocs
			outcome, err := c.Run()
			runtime.ReadMemStats(&ms)
			if err != nil || outcome != Completed {
				tb.Fatalf("Run at length %d = %v, %v", n, outcome, err)
			}
			if got := ms.Mallocs - start; try == 0 || got < allocs[i] {
				allocs[i] = got
			}
			events[i] = c.EventsDispatched()
		}
	}
	return (float64(allocs[1]) - float64(allocs[0])) / float64(events[1]-events[0])
}

func benchScheduler(b *testing.B, ranks int) {
	benchEventLoop(b, func(rounds int) Config { return idleHeavyRounds(ranks, rounds) }, 1)
}

func BenchmarkScheduler64Ranks(b *testing.B) { benchScheduler(b, 64) }

// benchOverlapDrain measures a checkpointed run whose collectives either
// overlap (staggered sub-communicator layouts, checkpoint requested with
// at least two collectives in flight — the drain planner must
// topologically sort a real dependency graph) or serialise (the
// bit-identical step structure with every collective retargeted to the
// world communicator, so at most one can ever be in flight). The pair
// tracks the drain planner's cost from day one: same op counts, same
// compute jitter, different overlap width.
func benchOverlapDrain(b *testing.B, overlap bool) {
	b.ReportAllocs()
	const ranks, steps = 64, 6
	wl := scenario.MustPrograms("overlap", scenario.Params{Ranks: ranks, Steps: steps, Seed: 11, Group: 8})
	mkConfig := func() Config {
		cfg := DefaultConfig()
		cfg.Ranks = ranks
		cfg.Seed = 11
		if overlap {
			cfg.Programs = wl
			cfg.Triggers = []Trigger{{At: vtime.Time(300 * vtime.Microsecond), FormingColls: 2}}
			return cfg
		}
		cfg.Programs = scenario.PerRank(ranks, func(id int) []scenario.Op {
			ops := wl[id]
			serial := make([]scenario.Op, 0, len(ops)-2)
			for pc := 2; pc < len(ops); pc++ { // drop the comm-splits
				op := ops[pc].Resolve(id)
				op.Comm = 0 // every collective runs over the world communicator
				serial = append(serial, op)
			}
			return serial
		})
		cfg.Triggers = []Trigger{{At: vtime.Time(300 * vtime.Microsecond), MidCollective: true}}
		return cfg
	}
	var rec CheckpointRecord
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := New(mkConfig())
		runtime.GC()
		b.StartTimer()
		outcome, err := c.Run()
		if err != nil || outcome != Completed {
			b.Fatalf("Run = %v, %v", outcome, err)
		}
		if len(c.Records()) != 1 {
			b.Fatalf("checkpoints = %d, want 1", len(c.Records()))
		}
		rec = c.Records()[0]
	}
	if overlap && rec.OverlapWidth < 2 {
		b.Fatalf("OverlapWidth = %d, want >= 2 — the overlap variant stopped overlapping", rec.OverlapWidth)
	}
	if !overlap && rec.OverlapWidth > 1 {
		b.Fatalf("OverlapWidth = %d, want <= 1 — the serial variant stopped serialising", rec.OverlapWidth)
	}
	b.ReportMetric(float64(rec.DrainPlanned), "drain-planned")
	b.ReportMetric(float64(rec.OverlapWidth), "overlap-width")
	b.ReportMetric(float64(rec.DrainEvents), "drain-events")
}

func BenchmarkOverlapDrain(b *testing.B) {
	b.Run("overlap", func(b *testing.B) { benchOverlapDrain(b, true) })
	b.Run("serial", func(b *testing.B) { benchOverlapDrain(b, false) })
}

func BenchmarkScheduler512Ranks(b *testing.B)  { benchScheduler(b, 512) }
func BenchmarkScheduler4096Ranks(b *testing.B) { benchScheduler(b, 4096) }

// islandBenchConfig builds the island-scaling scenario: one topology
// group per island, a send/recv ring inside each group, and a leader
// exchange between neighbouring groups every fourth step. Unlike the
// idle-heavy scenario (whose single busy rank is inherently serial),
// every island carries equal load, so the workload parallelises across
// workers while the cross-group lookahead keeps windows wide. The ops
// are pure message traffic — no compute phases — so 65536-rank runs do
// not materialise 4 GiB of per-rank state regions.
func islandBenchConfig(ranks, islands, workers, steps int) Config {
	groupSize := ranks / islands
	cfg := DefaultConfig()
	cfg.Ranks = ranks
	cfg.Triggers = nil
	cfg.Net.GroupSize = groupSize
	cfg.Net.CrossGroupLatency = 10 * vtime.Microsecond
	cfg.Islands = islands
	cfg.Workers = workers
	nGroups := ranks / groupSize
	cfg.Programs = scenario.PerRank(ranks, func(id int) []scenario.Op {
		g := id / groupSize
		base := g * groupSize
		next := base + (id-base+1)%groupSize
		prev := base + (id-base+groupSize-1)%groupSize
		ops := make([]scenario.Op, 0, 2*steps+4)
		for s := 0; s < steps; s++ {
			ops = append(ops,
				scenario.Op{Kind: scenario.OpSend, Peer: next, Bytes: 256, Tag: s},
				scenario.Op{Kind: scenario.OpRecv, Peer: prev, Tag: s},
			)
			if id == base && nGroups > 1 && s%4 == 3 {
				nextLeader := ((g + 1) % nGroups) * groupSize
				prevLeader := ((g + nGroups - 1) % nGroups) * groupSize
				ops = append(ops,
					scenario.Op{Kind: scenario.OpSend, Peer: nextLeader, Bytes: 128, Tag: 1000 + s},
					scenario.Op{Kind: scenario.OpRecv, Peer: prevLeader, Tag: 1000 + s},
				)
			}
		}
		return ops
	})
	return cfg
}

// islandBenchSteps is the island-scaling scenario's length wherever it
// is timed or compared; a multiple of four, the leader-exchange period.
const islandBenchSteps = 8

// benchIslands measures the island scheduler end to end, serial or
// parallel.
func benchIslands(b *testing.B, ranks, islands, workers int) {
	benchEventLoop(b, func(steps int) Config { return islandBenchConfig(ranks, islands, workers, steps) }, islandBenchSteps)
}

// BenchmarkScheduler65536Ranks pins the 64Ki-rank scale target; the
// 4-worker variant records the parallel wall-clock on the same
// partition.
func BenchmarkScheduler65536Ranks(b *testing.B) { benchIslands(b, 65536, 16, 1) }
func BenchmarkScheduler65536Ranks4Workers(b *testing.B) {
	benchIslands(b, 65536, 16, 4)
}

// TestEventLayout pins the event's layout: every heap sift copies it, so
// a field added carelessly costs every simulated event. It is 8 bytes,
// its queue entry (time, seq, event) is 24, and it holds no pointer — a
// pointer would bring back write barriers on every sift and make the
// collector scan the queue. The fat kinds keep their payload elsewhere
// (see the event doc comment).
func TestEventLayout(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size != 8 {
		t.Errorf("event is %d bytes, want 8", size)
	}
	// The queue's entry type is vtime's own, so it is weighed by what a
	// preallocated queue of 2^16 events costs.
	const n = 1 << 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	q := vtime.NewEventQueueSized[event](n)
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per != 24 || q.Cap() != n {
		t.Errorf("queue entry is %d bytes, want 24", per)
	}
	if path := pointerIn(reflect.TypeOf(event{}), "event"); path != "" {
		t.Errorf("event holds a pointer at %s", path)
	}
	// What a window buffers for the barrier is pointer-free too: a
	// message's ring slot must not outlive its receipt, so a delivery is
	// its time and event, and an arrival carries its collective by value.
	for _, v := range []any{pendingDelivery{}, pendingArrival{}} {
		typ := reflect.TypeOf(v)
		if path := pointerIn(typ, typ.Name()); path != "" {
			t.Errorf("%s holds a pointer at %s", typ.Name(), path)
		}
	}
}

// pointerIn returns the path of the first field of typ that is or holds
// a pointer the collector would scan, or "" if there is none.
func pointerIn(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p := pointerIn(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
		return ""
	case reflect.Array:
		return pointerIn(typ.Elem(), path+"[]")
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	default: // pointers, slices, strings, maps, channels, funcs, interfaces
		return path
	}
}
