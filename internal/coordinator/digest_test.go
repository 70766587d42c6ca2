package coordinator

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"mana/internal/fnv1a"
	"mana/internal/memsim"
	"mana/internal/netsim"
	"mana/internal/rank"
	"mana/internal/scenario"
	"mana/internal/virtid"
	"mana/internal/vtime"
)

// randomStats fills every field of rank.Stats by reflection, so a field
// added to the struct is non-zero in every test image.
func randomStats(t *testing.T, rng *rand.Rand) rank.Stats {
	var st rank.Stats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(1 + rng.Uint64()>>uint(rng.Intn(64)))
		case reflect.Int64:
			f.SetInt(1 + rng.Int63()>>uint(rng.Intn(63)))
		default:
			t.Fatalf("rank.Stats.%s has kind %v: teach randomStats about it", v.Type().Field(i).Name, f.Kind())
		}
	}
	return st
}

// randomImage builds an image with every list non-empty. It carries a
// memory snapshot and a delta both, real memsim payloads of one small
// space committed full and then delta; its Full flag says which one it
// digests.
func randomImage(t *testing.T, rng *rand.Rand, full bool) rank.Image {
	img := rank.Image{
		RankID: rng.Intn(1 << 20), PC: rng.Intn(1 << 16), Clock: vtime.Time(rng.Int63n(1 << 40)),
		Seq: 1 + rng.Intn(50), Base: 1 + rng.Intn(50), Full: full, Complete: rng.Intn(4) != 0,
		WrittenBytes: 1 + rng.Uint64()>>30, StoredBytes: 1 + rng.Uint64()>>30,
		Stats: &rank.SavedStats{Stats: randomStats(t, rng)},
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		img.Stats.Peers = append(img.Stats.Peers, rank.PeerCount{Peer: rng.Intn(100), Sent: rng.Uint64() >> 40, Received: rng.Uint64() >> 40})
	}
	a := memsim.NewAddressSpace()
	names := []string{"app.state", "[heap]", `q"uote\`, "naïve\x00\n", ""}
	var regions []*memsim.Region
	for i := 0; i < 1+rng.Intn(4); i++ {
		regions = append(regions, a.MmapZero(names[rng.Intn(len(names))], memsim.UpperHalf, memsim.Kind(rng.Intn(6)), uint64(1+rng.Intn(5*memsim.PageSize))))
	}
	img.Mem = a.CommitUpperHalf()
	for _, r := range regions {
		if err := a.Write(r.Addr, uint64(rng.Intn(int(r.Size))), []byte{byte(1 + rng.Intn(255))}); err != nil {
			t.Fatal(err)
		}
	}
	img.Delta = a.CommitUpperHalfDelta()
	for i := 0; i < 1+rng.Intn(3); i++ {
		img.Inbox = append(img.Inbox, netsim.Message{Seq: 1 + rng.Uint64()>>40, Src: rng.Intn(100), Dst: rng.Intn(100),
			Tag: rng.Intn(9) - 4, Bytes: rng.Uint64() >> 40, Sent: vtime.Stamp{Rank: rng.Intn(100), When: vtime.Time(rng.Int63n(1 << 40))},
			Arrive: vtime.Time(rng.Int63n(1 << 40))})
	}
	img.Virt = new(virtid.Snapshot)
	for k := 0; k < virtid.NumKinds; k++ {
		img.Virt.Next[k] = rng.Uint64() >> 50
		for i := 0; i < 1+rng.Intn(3); i++ {
			img.Virt.Entries[k] = append(img.Virt.Entries[k], virtid.Entry{VID: virtid.VID(rng.Uint64() >> 50), Real: virtid.Real(rng.Uint64() >> uint(rng.Intn(64)))})
		}
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		img.PendingReqs = append(img.PendingReqs, virtid.VID(rng.Uint64()>>50))
		img.Comms = append(img.Comms, virtid.VID(rng.Uint64()>>50))
		img.CommIDs = append(img.CommIDs, rng.Intn(1000))
	}
	return img
}

// cloneImage returns a deep copy of img that shares no payload with it:
// its memory snapshot, delta, inbox, handle-table snapshot, counters and
// slot tables are fresh copies. The copied handle-table snapshot and
// counters carry no memoised hash, so theirs are computed afresh from
// what they hold.
func cloneImage(img *rank.Image) rank.Image {
	c := *img
	if img.Mem != nil {
		m := *img.Mem
		m.Regions, m.RegionHashes = slices.Clone(m.Regions), slices.Clone(m.RegionHashes)
		c.Mem = &m
	}
	c.Delta.Regions = slices.Clone(img.Delta.Regions)
	for i := range c.Delta.Regions {
		rd := &c.Delta.Regions[i]
		rd.Pages = slices.Clone(rd.Pages)
		for j := range rd.Pages {
			rd.Pages[j].Data = slices.Clone(rd.Pages[j].Data)
		}
	}
	c.Inbox = slices.Clone(img.Inbox)
	v := virtid.Snapshot{Next: img.Virt.Next}
	for k := range v.Entries {
		v.Entries[k] = slices.Clone(img.Virt.Entries[k])
	}
	c.Virt = &v
	c.Stats = &rank.SavedStats{Stats: img.Stats.Stats, Peers: slices.Clone(img.Stats.Peers)}
	c.PendingReqs, c.Comms, c.CommIDs = slices.Clone(img.PendingReqs), slices.Clone(img.Comms), slices.Clone(img.CommIDs)
	return c
}

// foldLink folds a link's images in order, as checkpoint does.
func foldLink(d *digester, link []rank.Image) uint64 {
	h := fnv1a.Offset
	for i := range link {
		h = d.image(h, &link[i])
	}
	return uint64(h)
}

// notState names the fields, of an image and of every payload it points
// at, that are not checkpoint state or reach the fingerprint only
// through a hash beside them, with why. Everything under such a field is
// exempt too. Changing any of them must leave the fingerprint as it is.
var notState = map[string]string{
	"rank.Image.StoredBytes":    "storage accounting: what compression moved, not what restore reads",
	"rank.SavedStats.Peers":     "the §3.1 per-peer counts the drain compares, left out so that carrying them in the image moved no fp=",
	"memsim.Snapshot.Regions":   "digested through RegionHashes, which memsim's tests pin to the regions' contents",
	"memsim.Delta.BaseGen":      "memsim's generation counter; the link the delta applies to is folded as Image.Base",
	"memsim.Delta.ScannedPages": "capture cost accounting",
	"memsim.Delta.DirtyPages":   "capture accounting: the pages carried are folded one by one",
	"memsim.Delta.DirtyBytes":   "capture accounting, before dedup",
	"memsim.Delta.DedupBytes":   "capture accounting of the pages dropped",
	"memsim.PageDelta.Len":      "digested through Hash, which covers the page's Len bytes",
	"memsim.PageDelta.Data":     "digested through Hash",
}

// payloadTypes are the records the sensitivity walk must reach: the
// image and every payload it points at.
var payloadTypes = []string{"rank.Image", "rank.SavedStats", "rank.Stats", "rank.PeerCount", "virtid.Snapshot", "virtid.Entry",
	"memsim.Snapshot", "memsim.Delta", "memsim.RegionDelta", "memsim.PageDelta", "netsim.Message", "vtime.Stamp"}

// mutation is one leaf of an image changed in place, named by its field.
type mutation struct {
	field  string // "package.Type.Field" of the innermost field
	path   string
	exempt bool
	apply  func()
}

// leaves lists a mutation for every scalar reachable from v, which must
// be addressable: each exported field of a struct, the first and last
// element of a slice, every element of an array, what a non-nil pointer
// points at. A full image's Delta is not walked, nor a delta image's Mem:
// its kind never reads it. Unexported fields are memos of exported ones
// (cloneImage drops them) and are not walked either. seen collects the
// struct types and fields reached.
func leaves(v reflect.Value, path, field string, exempt bool, seen map[string]bool, out *[]mutation) {
	add := func(apply func()) {
		*out = append(*out, mutation{field: field, path: path, exempt: exempt, apply: apply})
	}
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			leaves(v.Elem(), path, field, exempt, seen, out)
		}
	case reflect.Struct:
		t := v.Type()
		seen[t.String()] = true
		unread := ""
		if img, ok := v.Addr().Interface().(*rank.Image); ok {
			unread = map[bool]string{true: "Delta", false: "Mem"}[img.Full]
		}
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() || f.Name == unread {
				continue
			}
			key := t.String() + "." + f.Name
			seen[key] = true
			_, skip := notState[key]
			leaves(v.Field(i), path+"."+f.Name, key, exempt || skip, seen, out)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if v.Kind() == reflect.Array || i == 0 || i == v.Len()-1 {
				leaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), field, exempt, seen, out)
			}
		}
	case reflect.Bool:
		add(func() { v.SetBool(!v.Bool()) })
	case reflect.Int, reflect.Int64:
		add(func() { v.SetInt(v.Int() ^ 1) })
	case reflect.Uint8, reflect.Uint64:
		add(func() { v.SetUint(v.Uint() ^ 1) })
	case reflect.String:
		add(func() { v.SetString(v.String() + "x") })
	default:
		panic(fmt.Sprintf("%s (%s): teach leaves to change a %v", path, field, v.Kind()))
	}
}

// linkLeaves returns a deep copy of link and a mutation for every leaf
// of its images (leaves).
func linkLeaves(link []rank.Image, seen map[string]bool) ([]rank.Image, []mutation) {
	c := make([]rank.Image, len(link))
	var muts []mutation
	for i := range link {
		c[i] = cloneImage(&link[i])
		leaves(reflect.ValueOf(&c[i]), fmt.Sprintf("image %d", i), "", false, seen, &muts)
	}
	return c, muts
}

// TestDigestFieldSensitivity changes every field of an image and of
// every payload it points at, one at a time, in a link of a full and a
// delta image: each change must move the link's fingerprint, unless
// notState names the field, in which case it must not. A field added
// later fails here until the digest folds it or notState says why it
// need not, and a listed field the digest starts to fold fails too. The
// payload hashes are computed afresh from the changed copy (cloneImage
// drops the memoised ones), so this checks the payloads' hash functions
// along with the image fold. Each fold goes through one digester that
// has seen every earlier change, and must match a fresh one: its head
// slots are hit, missed and re-hashed as the layout fields change.
func TestDigestFieldSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := []rank.Image{randomImage(t, rng, true), randomImage(t, rng, false)}
	var d digester
	want := foldLink(&d, base)
	seen := map[string]bool{}
	_, all := linkLeaves(base, seen)
	for n := range all {
		link, muts := linkLeaves(base, map[string]bool{})
		m := muts[n]
		m.apply()
		got := foldLink(&d, link)
		if fresh := foldLink(new(digester), link); got != fresh {
			t.Fatalf("%s changed: a digester that folded earlier links gives %016x, a fresh one %016x", m.path, got, fresh)
		}
		switch {
		case m.exempt && got != want:
			t.Errorf("%s changed the fingerprint, but notState lists it as not checkpoint state", m.path)
		case !m.exempt && got == want:
			t.Errorf("%s (%s) does not reach the fingerprint: fold it, or list it in notState with why", m.path, m.field)
		}
	}
	for _, typ := range payloadTypes {
		if !seen[typ] {
			t.Errorf("the walk never reached a %s", typ)
		}
	}
	for key := range notState {
		if !seen[key] {
			t.Errorf("notState lists %s, which is no field the walk reached", key)
		}
	}
	t.Logf("%d leaves changed", len(all))
}

// TestDigestFramesPageLists: the same pages carried by one region or by
// the region after it are different images. The sensitivity walk changes
// values, never where a list ends, so this pins the page counts the
// digest folds.
func TestDigestFramesPageLists(t *testing.T) {
	img := randomImage(t, rand.New(rand.NewSource(5)), false)
	rd := img.Delta.Regions[0]
	if len(rd.Pages) == 0 {
		t.Fatal("the first region carries no page")
	}
	empty := rd
	empty.Pages = nil
	empty.Name += "'"
	img.Delta.Regions = []memsim.RegionDelta{rd, empty}
	moved := cloneImage(&img)
	moved.Delta.Regions[0].Pages, moved.Delta.Regions[1].Pages = nil, rd.Pages
	var d digester
	if a, b := foldLink(&d, []rank.Image{img}), foldLink(&d, []rank.Image{moved}); a == b {
		t.Fatalf("moving %d pages to the next region leaves the fingerprint at %016x", len(rd.Pages), a)
	}
}

// TestDigestFoldsContentNotIdentity: every link of an incremental run
// with drained messages digests to its recorded fingerprint again, and
// so does a copy of it whose images point at deep copies of their
// payloads, hashed afresh — through a fresh digester and through one
// that has folded the originals. A copy changed in place after it was
// folded digests as a fresh digester reads the change.
func TestDigestFoldsContentNotIdentity(t *testing.T) {
	cfg := smallConfig(16, 40)
	cfg.Incremental, cfg.FullImageEvery = true, 3
	cfg.Triggers = []Trigger{{At: vtime.Time(vtime.Microsecond)}, {At: vtime.Time(vtime.Microsecond), InFlight: true},
		{At: vtime.Time(vtime.Microsecond), MidCollective: true}, {At: vtime.Time(vtime.Millisecond), InFlight: true}}
	cfg.Faults = nil
	c := New(cfg)
	if out, err := c.Run(); err != nil || out != Completed {
		t.Fatalf("Run = %v, %v", out, err)
	}
	var d digester
	kinds := map[bool]bool{}
	drained := 0
	for _, rec := range c.Records() {
		images := c.store.Images(rec.Seq)
		if images == nil {
			continue
		}
		copies := make([]rank.Image, len(images))
		for i := range images {
			copies[i] = cloneImage(&images[i])
			kinds[images[i].Full] = true
			drained += len(images[i].Inbox)
		}
		if got := foldLink(&d, images); got != rec.Fingerprint {
			t.Fatalf("#%d folds to %016x again, recorded %016x", rec.Seq, got, rec.Fingerprint)
		}
		if got := foldLink(&d, copies); got != rec.Fingerprint {
			t.Errorf("#%d with copied payloads folds to %016x, recorded %016x", rec.Seq, got, rec.Fingerprint)
		}
		if got := foldLink(new(digester), copies); got != rec.Fingerprint {
			t.Errorf("#%d with copied payloads folds to %016x through a fresh digester, recorded %016x", rec.Seq, got, rec.Fingerprint)
		}
		copies[0].Stats.MsgsSent++
		copies[0].Virt.Next[0]++
		if got, fresh := foldLink(&d, copies), foldLink(new(digester), copies); got != fresh || got == rec.Fingerprint {
			t.Errorf("#%d changed in place folds to %016x, %016x through a fresh digester, recorded %016x", rec.Seq, got, fresh, rec.Fingerprint)
		}
	}
	if !kinds[true] || !kinds[false] || drained == 0 {
		t.Fatalf("retained links: full %v, delta %v, %d drained messages; want both kinds and some messages", kinds[true], kinds[false], drained)
	}
}

// TestFinalDigestMatchesFmt pins the final fingerprint's fold to hash/fnv
// over the fmt rendering it keeps as its contract, on a finished run
// whose ranks owe markers: foldFinal hashes them unwritten, the
// rendering after the flush that Mem does.
func TestFinalDigestMatchesFmt(t *testing.T) {
	c := New(DefaultConfig())
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	ref := fnv.New64a()
	h := fnv1a.Offset
	var scratch []byte
	for _, r := range c.ranks {
		h = foldFinal(h, r, &scratch)
		fmt.Fprintf(ref, "%d:%d:%x;", r.ID(), r.Clock().Now(), r.Mem().SnapshotUpperHalf().Fingerprint())
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
	cfg.Faults = crashAfter(1, 250*vtime.Microsecond)
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
// the rank record (504 B, with its clock, kernel and handle table held
// by value), the handle table's windows, its share of the scheduler and
// of netsim's pair tables, and of memory one address-space record —
// measured at 1,020 B, plus 20 %. The twelve region entries are not
// per-rank: a space reads the job's layout's region table in place until
// it first maps, writes, captures or restores, which no wide-idle rank
// does, and copying them into every rank was 384 B of it (1,404 B). A
// finished rank holds no marker page table and buffer either: the final
// fingerprint lays the markers it owes over a scratch copy of app.state
// instead of writing them (1,948 B when it wrote them). Not per-rank
// costs: the compiled program (every rank holds a slice header onto one
// shared op stream) and the memory map (one immutable layout per
// process). A full state page and twelve private region records with
// bitmaps were 9,189 B; the flat 64 KiB state region alone was more
// than fifty times the budget.
const wideIdleBudget = 1020 * 12 / 10

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
	cfg.Programs = mustPrograms("default", scenario.Params{Ranks: ranks, Steps: 5, Seed: 42})
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
	cfg.Programs = mustPrograms("default", scenario.Params{Ranks: ranks, Steps: 40, Seed: 42})
	cfg.Incremental, cfg.FullImageEvery = true, 4
	cfg.Triggers = []Trigger{{At: vtime.Time(vtime.Microsecond)}, {At: vtime.Time(vtime.Microsecond)},
		{At: vtime.Time(vtime.Microsecond), MidCollective: true}}
	c := New(cfg)
	if out, err := c.Run(); err != nil || out != Completed {
		b.Fatalf("Run = %v, %v", out, err)
	}
	// The run is over: no later commit recycles the link's array.
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
