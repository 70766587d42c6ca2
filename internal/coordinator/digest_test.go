package coordinator

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"mana/internal/fnv1a"
	"mana/internal/memsim"
	"mana/internal/netsim"
	"mana/internal/rank"
	"mana/internal/scenario"
	"mana/internal/virtid"
	"mana/internal/vtime"
)

// fmtImageDigest is the reference rendering of an image's contribution to
// a checkpoint fingerprint: the fmt calls the digest was written with.
// Every fingerprint ever recorded hashes exactly these bytes, so
// digester.image must fold the hash of them.
func fmtImageDigest(h io.Writer, img rank.Image) {
	if !img.Complete {
		fmt.Fprintf(h, "torn(%d/%d);", img.WrittenBytes, img.Bytes())
	}
	if img.Full {
		fmt.Fprintf(h, "%d:%d:%d:%x:%+v;", img.RankID, img.PC, img.Clock, img.Mem.Fingerprint(), img.Stats)
	} else {
		fmt.Fprintf(h, "%d:%d:%d:delta(%d<-%d,brk=%x):%+v;",
			img.RankID, img.PC, img.Clock, img.Seq, img.Base, img.Delta.Brk, img.Stats)
		for _, rd := range img.Delta.Regions {
			fmt.Fprintf(h, "rd(%q,%d,%d,%x,%d,%d", rd.Name, rd.Half, rd.Kind, rd.Addr, rd.Size, rd.DataLen)
			for _, p := range rd.Pages {
				fmt.Fprintf(h, ",%d=%x", p.Index, p.Hash)
			}
			fmt.Fprint(h, ");")
		}
	}
	for _, m := range img.Inbox {
		fmt.Fprintf(h, "in(%d,%d,%d,%d,%d);", m.Src, m.Dst, m.Tag, m.Bytes, m.Arrive)
	}
	for k := 0; k < virtid.NumKinds; k++ {
		fmt.Fprintf(h, "vt(%d,%d", k, img.Virt.Next[k])
		for _, e := range img.Virt.Entries[k] {
			fmt.Fprintf(h, ",%d=%x", e.VID, e.Real)
		}
		fmt.Fprint(h, ");")
	}
	for _, req := range img.PendingReqs {
		fmt.Fprintf(h, "pr(%d);", req)
	}
	for i := range img.Comms {
		fmt.Fprintf(h, "cm(%d,%d,%d);", i, img.Comms[i], img.CommIDs[i])
	}
}

// randomStats fills every field of rank.Stats by reflection, so a field
// added to the struct reaches the fmt reference (which prints all of
// them) and fails the comparison until appendStats prints it too.
func randomStats(t *testing.T, rng *rand.Rand) rank.Stats {
	var st rank.Stats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(rng.Uint64() >> uint(rng.Intn(64)))
		case reflect.Int64:
			f.SetInt(rng.Int63() >> uint(rng.Intn(63)))
		default:
			t.Fatalf("rank.Stats.%s has kind %v: teach randomStats and appendStats about it", v.Type().Field(i).Name, f.Kind())
		}
	}
	return st
}

func randomImage(t *testing.T, rng *rand.Rand) rank.Image {
	img := rank.Image{
		RankID: rng.Intn(1 << 20), PC: rng.Intn(1 << 16), Clock: vtime.Time(rng.Int63n(1 << 40)),
		Seq: 1 + rng.Intn(50), Base: rng.Intn(50), Full: rng.Intn(2) == 0, Complete: rng.Intn(4) != 0,
		WrittenBytes: rng.Uint64() >> 30, Stats: randomStats(t, rng),
	}
	// Real memory payloads: a small space, committed full and then delta.
	a := memsim.NewAddressSpace()
	names := []string{"app.state", "[heap]", `q"uote\`, "naïve\x00\n", ""}
	var regions []*memsim.Region
	for i := 0; i < 1+rng.Intn(4); i++ {
		// Mmap starts a region with no contents, MmapZero with all of it
		// zeros: the same layout then renders heads that differ only in
		// their data length.
		mmap := a.MmapZero
		if rng.Intn(2) == 0 {
			mmap = a.Mmap
		}
		regions = append(regions, mmap(names[rng.Intn(len(names))], memsim.UpperHalf, memsim.Kind(rng.Intn(6)), uint64(1+rng.Intn(5*memsim.PageSize))))
	}
	img.Mem = a.CommitUpperHalf()
	for _, r := range regions {
		if rng.Intn(2) == 0 {
			if err := a.Write(r.Addr, uint64(rng.Intn(int(r.Size))), []byte{byte(1 + rng.Intn(255))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	img.Delta = a.CommitUpperHalfDelta()
	if img.Full {
		img.Delta = memsim.Delta{}
	}
	for i := 0; i < rng.Intn(4); i++ {
		img.Inbox = append(img.Inbox, netsim.Message{Src: rng.Intn(100), Dst: rng.Intn(100), Tag: rng.Intn(9) - 4,
			Bytes: rng.Uint64() >> 40, Arrive: vtime.Time(rng.Int63n(1 << 40))})
	}
	if rng.Intn(2) == 0 {
		// A snapshot as a rank captures it: taken from a live sharded
		// table, so it carries its digest text pre-rendered.
		tbl := virtid.New(virtid.ImplSharded)
		for i := 0; i < rng.Intn(12); i++ {
			k := virtid.Kind(rng.Intn(virtid.NumKinds))
			v := tbl.Register(k, virtid.Real(rng.Uint64()>>uint(rng.Intn(64))))
			if rng.Intn(3) == 0 {
				tbl.Deregister(k, v)
			}
		}
		tbl.Snapshot()
		img.Virt = tbl.Snapshot() // the memoised one
	} else {
		for k := 0; k < virtid.NumKinds; k++ {
			img.Virt.Next[k] = rng.Uint64() >> 50
			for i := 0; i < rng.Intn(4); i++ {
				img.Virt.Entries[k] = append(img.Virt.Entries[k], virtid.Entry{VID: virtid.VID(rng.Uint64() >> 50), Real: virtid.Real(rng.Uint64() >> uint(rng.Intn(64)))})
			}
		}
	}
	for i := 0; i < rng.Intn(4); i++ {
		img.PendingReqs = append(img.PendingReqs, virtid.VID(rng.Uint64()>>50))
		img.Comms = append(img.Comms, virtid.VID(rng.Uint64()>>50))
		img.CommIDs = append(img.CommIDs, rng.Intn(1000))
	}
	return img
}

// TestDigestMatchesFmt pins the folded digests to hash/fnv over the fmt
// rendering they replaced, over a chain of random images: each image is
// folded from the state the previous one left, as a checkpoint folds its
// link, and the chain starts from every low byte an incoming state can
// have. One digester serves the whole sequence, as one serves a run: the
// random layouts keep replacing its region-head slots, every image is
// folded again after a later one has been (so slots and the handle-table
// segment are hit, missed, and re-rendered after going stale), and the
// handle-table text changes between images.
func TestDigestMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var d digester
	var prev rank.Image
	h := fnv1a.Offset
	for i := 0; i < 512; i++ {
		img := randomImage(t, rng)
		// The chain carries on in the high bits; the low byte, which picks
		// the table entry every segment folds through, takes each value
		// twice over the run.
		h = h&^0xff | fnv1a.Hash(uint8(i))
		for _, im := range []*rank.Image{&img, &img, &prev, &img} {
			var text bytes.Buffer
			fmtImageDigest(&text, *im)
			ref := fnv.New64a()
			ref.Write(text.Bytes())
			if got := uint64(d.image(fnv1a.Offset, im)); got != ref.Sum64() {
				t.Fatalf("image %d folds to %016x, hash/fnv over the fmt text to %016x\n%s", i, got, ref.Sum64(), text.Bytes())
			}
			// hash/fnv starts only from the offset basis; from the chain's
			// state the reference is the byte loop (fnv1a's fuzz targets
			// tie the two together).
			want := h.Text(text.Bytes())
			if got := d.image(h, im); got != want {
				t.Fatalf("image %d from state %016x folds to %016x, the fmt text to %016x\n%s", i, uint64(h), uint64(got), uint64(want), text.Bytes())
			}
			h = want
		}
		prev = img
	}
	ref := fnv.New64a()
	h = fnv1a.Offset
	for _, r := range New(DefaultConfig()).ranks {
		fmt.Fprintf(ref, "%d:%d:%x;", r.ID(), r.Clock().Now(), r.Mem().SnapshotUpperHalf().Fingerprint())
		h = foldFinal(h, r)
	}
	if uint64(h) != ref.Sum64() {
		t.Fatalf("final digest folds to %016x, hash/fnv over the fmt text to %016x", uint64(h), ref.Sum64())
	}
}

// TestOneFingerprintPassPerRun: the report and the fleet result both
// need the final fingerprint; a finished run computes it once, and a run
// that moves again computes it afresh.
func TestOneFingerprintPassPerRun(t *testing.T) {
	c := New(DefaultConfig())
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	c.WriteReport(io.Discard)
	fp := c.FinalFingerprint()
	c.WriteReport(io.Discard)
	if c.fingerprintPasses != 1 {
		t.Fatalf("report + result + report took %d fingerprint passes, want 1", c.fingerprintPasses)
	}
	plain := New(func() Config { cfg := DefaultConfig(); cfg.Triggers = nil; return cfg }())
	if _, err := plain.Run(); err != nil {
		t.Fatal(err)
	}
	if fp != plain.FinalFingerprint() {
		t.Fatal("memoised fingerprint differs from an uncheckpointed run's")
	}

	cfg := DefaultConfig()
	cfg.Triggers = []Trigger{{At: vtime.Time(2 * vtime.Millisecond)}}
	cfg.FailAtCheckpoint = 1
	c = New(cfg)
	if out, err := c.Run(); err != nil || out != Failed {
		t.Fatalf("Run = %v, %v; want the injected failure", out, err)
	}
	mid := c.FinalFingerprint()
	if err := c.Restart(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.FinalFingerprint() == mid || c.FinalFingerprint() != plain.FinalFingerprint() || c.fingerprintPasses != 2 {
		t.Fatalf("fingerprint after restart: stale=%v passes=%d", c.FinalFingerprint() == mid, c.fingerprintPasses)
	}
}

// wideIdleBudget is the live heap a finished wide-idle rank may hold:
// the sharded handle table (1.9 KiB, the largest term now), the rank,
// clock and kernel records, its share of the scheduler and of netsim's
// pair tables, and of memory: one address-space record, twelve four-word
// region entries pointing into the job's shared layout, and for the one
// region it wrote a page table and a 256-byte buffer holding its 18
// eight-byte markers — measured at 2,845 B, plus 20 %. Not per-rank
// costs: the compiled program (every rank holds a slice header onto one
// shared op stream), the memory map (one immutable layout per process)
// and the unwritten 3,952 bytes of the touched page (a buffer is as long
// as the written prefix). A full state page and twelve private region
// records with bitmaps were 9,189 B; the flat 64 KiB state region alone
// was twenty times the budget.
const wideIdleBudget = 2845 * 12 / 10

// TestWideIdleMemoryBudget holds the benchmark's wide-idle workload —
// many ranks that each touch a few bytes — to a per-rank memory budget in
// tier 1, so memory proportional to address-space size cannot come back
// unnoticed.
func TestWideIdleMemoryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 8192 ranks")
	}
	const ranks = 8192
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cfg := BaseConfig()
	cfg.Ranks = ranks
	cfg.Programs = scenario.MustPrograms("default", scenario.Params{Ranks: ranks, Steps: 5, Seed: 42})
	c := New(cfg)
	if out, err := c.Run(); err != nil || out != Completed {
		t.Fatalf("Run = %v, %v", out, err)
	}
	c.WriteReport(io.Discard)
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRank := (after.HeapAlloc - before.HeapAlloc) / ranks
	t.Logf("live heap after New → Run → WriteReport: %d B/rank; allocated in total: %d B/rank",
		perRank, (after.TotalAlloc-before.TotalAlloc)/ranks)
	if perRank > wideIdleBudget {
		t.Errorf("live heap is %d B/rank, budget %d", perRank, wideIdleBudget)
	}
	runtime.KeepAlive(c)
}

// digestSink keeps the benchmark's result alive.
var digestSink fnv1a.Hash

// BenchmarkCheckpointDigest prices the checkpoint fingerprint alone,
// per image: the last delta link of a ckpt-storm-shaped run (the default
// spec at 2,048 ranks, incremental, a checkpoint requested at 1us and a
// mid-collective one after it) folded the way checkpoint folds a link,
// by one digester that has seen the link before — as it has from the
// second commit of a run on.
func BenchmarkCheckpointDigest(b *testing.B) {
	const ranks = 2048
	cfg := BaseConfig()
	cfg.Ranks = ranks
	cfg.Programs = scenario.MustPrograms("default", scenario.Params{Ranks: ranks, Steps: 40, Seed: 42})
	cfg.Incremental, cfg.FullImageEvery = true, 4
	cfg.Triggers = []Trigger{{At: vtime.Time(vtime.Microsecond)}, {At: vtime.Time(vtime.Microsecond)},
		{At: vtime.Time(vtime.Microsecond), MidCollective: true}}
	c := New(cfg)
	if out, err := c.Run(); err != nil || out != Completed {
		b.Fatalf("Run = %v, %v", out, err)
	}
	var images []rank.Image
	for seq := 1; seq <= len(c.Records()); seq++ {
		if link := c.store.Images(seq); link != nil && !link[0].Full {
			images = link
		}
	}
	if len(images) != ranks {
		b.Fatalf("no delta link of %d images", ranks)
	}
	var d digester
	fold := func() {
		h := fnv1a.Offset
		for i := range images {
			h = d.image(h, &images[i])
		}
		digestSink = h
	}
	fold()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fold()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ranks), "ns/image")
}
