package main

import (
	"fmt"
	"runtime"
	"time"

	"mana/internal/coordinator"
	"mana/internal/fleet"
	"mana/internal/kernelsim"
	"mana/internal/memsim"
	"mana/internal/netsim"
	"mana/internal/rank"
	"mana/internal/scenario"
	"mana/internal/storage"
	"mana/internal/virtid"
	"mana/internal/vtime"
)

// The layer probes call the packages under the coordinator directly, on
// the workload's own ranks and programs where the cost depends on state
// and on fixed sizes where it does not. kernelsim has no probe: it is
// cost arithmetic, and its constants surface only through model.*.

// probeRanks bounds the per-rank probes: enough ranks to average over,
// few enough that wide-idle's 8192 do not turn the probe into a run.
const probeRanks = 64

// timed runs f and returns the host time it took, in the unit whose
// nanosecond count is per (1 = ns, 1e3 = us).
func timed(per float64, f func()) float64 {
	start := time.Now()
	f()
	return float64(time.Since(start).Nanoseconds()) / per
}

func allocated(f func()) (bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc)
}

// statePage is the write that dirties exactly one page of a rank's
// app.state region, as one workload step does.
func dirtyPage(r *rank.Rank, fill byte) {
	page := make([]byte, memsim.PageSize)
	for i := range page {
		page[i] = fill
	}
	for _, reg := range r.Mem().RegionsOf(memsim.UpperHalf) {
		if reg.Name == "app.state" {
			if err := r.Mem().Write(reg.Addr, 0, page); err != nil {
				panic(fmt.Sprintf("bench: dirtying rank %d: %v", r.ID(), err))
			}
			return
		}
	}
	panic(fmt.Sprintf("bench: rank %d has no app.state region", r.ID()))
}

// probeState measures construction, capture and restore per rank on the
// finished job's ranks. Two disjoint samples are used because a capture
// seals what it reads: the memsim commits and the rank captures each
// need ranks nobody has committed since the job ended.
func probeState(m metrics, c *coordinator.Coordinator, progs []scenario.Program) {
	ranks := c.Ranks()
	n := max(1, min(probeRanks, len(ranks)/2))
	capture, commit := ranks[:n], ranks[len(ranks)-n:]
	perRank := float64(n) * 1e3 // microseconds per rank

	var built []*rank.Rank
	kb := allocated(func() {
		m["rank.new_us_per_rank"] = timed(perRank, func() {
			for id := 0; id < n; id++ {
				built = append(built, rank.New(id, kernelsim.Unpatched, virtid.ImplSharded, progs[id]))
			}
		})
	}) / 1024
	m["rank.new_kb_per_rank"] = kb / float64(n)

	m["memsim.commit_us_per_rank"] = timed(perRank, func() {
		for _, r := range commit {
			r.Mem().CommitUpperHalf()
		}
	})
	for _, r := range commit {
		dirtyPage(r, 0xa5)
	}
	m["memsim.commit_delta_us_per_rank"] = timed(perRank, func() {
		for _, r := range commit {
			r.Mem().CommitUpperHalfDelta()
		}
	})

	full := make([]rank.Image, n)
	m["rank.capture_full_us_per_rank"] = timed(perRank, func() {
		for i, r := range capture {
			full[i] = r.CaptureImage(false)
			full[i].Seq = 1
		}
	})
	for _, r := range capture {
		dirtyPage(r, 0x5a)
	}
	delta := make([]rank.Image, n)
	m["rank.capture_incr_us_per_rank"] = timed(perRank, func() {
		for i, r := range capture {
			delta[i] = r.CaptureImage(true)
			delta[i].Seq, delta[i].Base = 2, 1
		}
	})

	st, err := storage.Load("staged-compressed")
	if err != nil {
		panic(err) // a built-in profile
	}
	cfg, err := storage.Compile(st)
	if err != nil {
		panic(err)
	}
	var raw uint64
	const compressRounds = 64 // one page per delta is too little to time once
	sec := timed(1e9, func() {
		for round := 0; round < compressRounds; round++ {
			for i := range delta {
				_, b := cfg.CompressDelta(&delta[i].Delta)
				raw += b
			}
		}
	})
	m["storage.compress_mb_per_s"] = float64(raw) / (1 << 20) / sec

	pages := 0
	verifySec := timed(1e9, func() {
		for i := range full {
			for _, img := range []rank.Image{full[i], delta[i]} {
				p, err := rank.VerifyImage(img)
				if err != nil {
					panic(fmt.Sprintf("bench: a freshly captured image fails verification: %v", err))
				}
				pages += p
			}
		}
	})
	m["rank.verify_us_per_rank"] = verifySec * 1e6 / float64(n)
	m["memsim.verify_pages_per_s"] = float64(pages) / verifySec
	overlaid := make([]rank.Image, n)
	m["rank.overlay_us_per_rank"] = timed(perRank, func() {
		for i := range full {
			overlaid[i] = rank.Overlay(full[i], delta[i])
		}
	})
	m["rank.restore_us_per_rank"] = timed(perRank, func() {
		for i, r := range capture {
			r.Restore(overlaid[i])
		}
	})
	for _, r := range built {
		r.ReleaseMem()
	}
}

// probeFingerprint times the upper-half fingerprint on ranks whose region
// hashes nothing has memoised yet: it runs before the job's first
// FinalFingerprint.
func probeFingerprint(m metrics, c *coordinator.Coordinator) {
	ranks := c.Ranks()
	n := min(probeRanks, len(ranks))
	m["memsim.fingerprint_us_per_rank"] = timed(float64(n)*1e3, func() {
		for _, r := range ranks[:n] {
			r.Mem().SnapshotUpperHalf().Fingerprint()
		}
	})
}

type nopScheduler struct{}

func (nopScheduler) ScheduleDelivery(*netsim.Message) {}

// probeFixed measures the layers whose cost does not depend on the
// workload, at fixed sizes, one goroutine.
func probeFixed(m metrics) {
	const (
		tables = 10_000
		ops    = 1_000_000
		events = 100_000
		lanes  = 8
	)
	keep := make([]virtid.Table, tables)
	m["virtid.new_bytes"] = allocated(func() {
		m["virtid.new_ns"] = timed(tables, func() {
			for i := range keep {
				keep[i] = virtid.New(virtid.ImplSharded)
			}
		})
	}) / tables

	lookup := func(impl virtid.Impl) float64 {
		t := virtid.New(impl)
		var vids [1024]virtid.VID
		for i := range vids {
			vids[i] = t.Register(virtid.Request, virtid.Real(i))
		}
		return timed(ops, func() {
			for i := 0; i < ops; i++ {
				t.Lookup(virtid.Request, vids[i%len(vids)])
			}
		})
	}
	m["virtid.lookup_ns"] = lookup(virtid.ImplSharded)
	m["virtid.mutex_lookup_ns"] = lookup(virtid.ImplMutex)
	// A request's life: registered at post, deregistered at wait.
	t := virtid.New(virtid.ImplSharded)
	m["virtid.register_ns"] = timed(ops, func() {
		for i := 0; i < ops/2; i++ {
			t.Deregister(virtid.Request, t.Register(virtid.Request, virtid.Real(i)))
		}
	})

	q := vtime.NewIslandQueues[int](lanes, events/lanes)
	m["vtime.push_pop_ns"] = timed(events, func() {
		for i := 0; i < events; i++ {
			// A multiplicative hash spreads times so the heaps do real work.
			q.Push(i%lanes, vtime.Time(uint32(i)*2654435761), i)
		}
		for {
			if _, _, _, ok := q.PopMin(); !ok {
				break
			}
		}
	})

	net := netsim.New(netsim.DefaultParams())
	net.SetDeliveryScheduler(nopScheduler{})
	m["netsim.send_recv_ns"] = timed(events, func() {
		for i := 0; i < events; i++ {
			src := i % 1024
			msg, _ := net.Send(src, src+1, 0, 65536, vtime.Stamp{Rank: src, When: vtime.Time(i)})
			if net.Recv(src+1, src, msg.Arrive) != msg {
				panic("bench: netsim lost a message")
			}
		}
	})

	pfs := storage.NewPFS(storage.DefaultPFSBandwidth)
	m["storage.pfs_write_ns"] = timed(ops, func() {
		for i := 0; i < ops; i++ {
			pfs.Write(vtime.Time(i), 1<<20)
		}
	})
}

// probeFleet measures the sweep through fleet.Engine.RunSweep itself, at
// pool widths 1 and 2, and checks both against each other and the CLI.
func probeFleet(m metrics, w workload, seed uint64, jobs []job, cli *report) error {
	run := func(pool int) (*fleet.SweepResult, error) {
		runtime.GC()
		return fleet.NewEngine().RunSweep(w.sweep(seed, pool))
	}
	w1, err := run(1)
	if err != nil {
		return err
	}
	w2, err := run(2)
	if err != nil {
		return err
	}
	m["fleet.cells_per_s_w1"], m["fleet.cells_per_s_w2"] = w1.Totals.RunsPerSec, w2.Totals.RunsPerSec
	m["fleet.pool_speedup"] = w2.Totals.RunsPerSec / w1.Totals.RunsPerSec
	m["fleet.spec_compiles"] = float64(w1.Totals.SpecCompiles)

	// The same job twice on one engine: the second draws its programs
	// from the compile cache and its storage from the scratch pool.
	eng := fleet.NewEngine()
	j := jobs[len(jobs)-1]
	if j.Spec, err = eng.LoadSpec(j.specName); err != nil {
		return err
	}
	mallocs := func() (n float64, err error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = eng.RunJob(j.Job, nil)
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs - before.Mallocs), err
	}
	cold, err := mallocs()
	if err != nil {
		return err
	}
	warm, err := mallocs()
	if err != nil {
		return err
	}
	m["fleet.warm_cold_alloc_ratio"] = warm / cold

	if len(w1.Cells) != len(w2.Cells) || len(w1.Cells) != len(cli.cells) {
		return fmt.Errorf("%d cells at width 1, %d at width 2, %d from the CLI", len(w1.Cells), len(w2.Cells), len(cli.cells))
	}
	for i := range w1.Cells {
		a, b, c := w1.Cells[i].ReportFNV64, w2.Cells[i].ReportFNV64, cli.cells[i].ReportFNV64
		if a != b || a != c {
			return fmt.Errorf("cell %d: report %s at width 1, %s at width 2, %s from the CLI", i, a, b, c)
		}
	}
	if w1.Totals.SpecCompiles != 10 {
		return fmt.Errorf("%d spec compiles, want 10", w1.Totals.SpecCompiles)
	}
	return nil
}
