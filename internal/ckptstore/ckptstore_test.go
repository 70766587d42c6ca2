package ckptstore

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"mana/internal/kernelsim"
	"mana/internal/memsim"
	"mana/internal/rank"
	"mana/internal/storage"
	"mana/internal/virtid"
	"mana/internal/vtime"
)

// job is a few ranks checkpointed the way the coordinator's commit stage
// does it — capture every rank, stamp the chain, write each image, commit
// — with no coordinator, scheduler or network behind them.
type job struct {
	ranks []*rank.Rank
	seq   int
}

func newJob(n int) *job {
	j := &job{}
	for id := 0; id < n; id++ {
		j.ranks = append(j.ranks, rank.New(id, kernelsim.Unpatched, virtid.ImplSharded, nil))
	}
	return j
}

// capture dirties one page of every rank and takes the next checkpoint's
// images: full, or deltas onto the previous checkpoint.
func (j *job) capture(incremental bool) []rank.Image {
	return j.captureInto(make([]rank.Image, len(j.ranks)), incremental)
}

// captureInto is capture into the slots given — a store's Slots — each
// rank sharing slot tables with the rank before it, as the coordinator's
// commit stage captures. The first byte of every rank's app.state is the
// checkpoint's seq.
func (j *job) captureInto(images []rank.Image, incremental bool) []rank.Image {
	j.seq++
	for i, r := range j.ranks {
		for _, rg := range r.Mem().RegionsOf(memsim.UpperHalf) {
			if rg.Name == "app.state" {
				if err := r.Mem().Write(rg.Addr, 0, []byte{byte(j.seq)}); err != nil {
					panic(err)
				}
			}
		}
		var prev *rank.Image
		if i > 0 {
			prev = &images[i-1]
		}
		r.CaptureInto(&images[i], incremental, prev)
		images[i].Seq = j.seq
		if !images[i].Full {
			images[i].Base = j.seq - 1
		}
	}
	return images
}

// commit writes every image starting at start and commits them.
func (j *job) commit(s *Store, start vtime.Time, images []rank.Image) []Drain {
	for i := range images {
		s.Write(i, start, images[i].StoredBytes)
	}
	return append([]Drain(nil), s.Commit(images[0].Seq, images)...)
}

// staged is a burst-buffer pipeline roomy enough never to spill, over a
// PFS slow enough that drains take real time.
var stagedPipeline = storage.Config{PFSBandwidth: 1e9, Staging: true, BBBandwidth: 8e9, BBCapacity: 1 << 40}

// charged counts what Choose charged, per rank.
type charged struct{ calls, pages []int }

func newCharged(ranks int) *charged {
	return &charged{calls: make([]int, ranks), pages: make([]int, ranks)}
}

func (c *charged) charge(r, pages int) vtime.Duration {
	c.calls[r]++
	c.pages[r] += pages
	return vtime.Duration(3 * pages)
}

func (s *Store) generations() (seqs [][]int) {
	for _, g := range s.gens {
		var gen []int
		for _, lk := range g {
			gen = append(gen, lk.seq)
		}
		seqs = append(seqs, gen)
	}
	return seqs
}

// TestRetentionFreesBufferSpace: a full link past the retention bound
// deletes the oldest generation, and the burst-buffer space its undrained
// copies held comes back; a drain completion for the deleted link is a
// no-op.
func TestRetentionFreesBufferSpace(t *testing.T) {
	j := newJob(3)
	s := New(stagedPipeline, 3, 1)
	var bytes [][]uint64 // per checkpoint, per rank
	for k := 0; k < 3; k++ {
		images := j.capture(false)
		var b []uint64
		for i := range images {
			b = append(b, images[i].StoredBytes)
		}
		bytes = append(bytes, b)
		j.commit(s, vtime.Time(k)*vtime.Time(vtime.Millisecond), images)
	}
	if got := fmt.Sprint(s.generations()); got != "[[2] [3]]" {
		t.Fatalf("retained generations %s, want [[2] [3]]", got)
	}
	for r := range j.ranks {
		if want := bytes[1][r] + bytes[2][r]; s.bbUsed[r] != want {
			t.Errorf("rank %d buffer holds %d bytes, want #2's and #3's %d", r, s.bbUsed[r], want)
		}
	}

	// #1 is gone: its drains' completions change nothing.
	before := append([]uint64(nil), s.bbUsed...)
	for r := range j.ranks {
		s.DrainDone(1, r)
	}
	if fmt.Sprint(s.bbUsed) != fmt.Sprint(before) {
		t.Errorf("stale drain completions moved the buffers: %v, want %v", s.bbUsed, before)
	}

	// #2's drains free exactly its bytes and make it durable.
	for r := range j.ranks {
		if lk := s.findLink(2); lk.durable {
			t.Fatalf("#2 durable before its last drain (rank %d pending)", r)
		}
		s.DrainDone(2, r)
		if want := bytes[2][r]; s.bbUsed[r] != want {
			t.Errorf("rank %d buffer holds %d bytes after #2's drain, want %d", r, s.bbUsed[r], want)
		}
	}
	if !s.findLink(2).durable || s.findLink(3).durable {
		t.Error("want #2 durable and #3 not")
	}
}

// TestFIFODrainsMakeDurabilityMonotone: drains queue on one FIFO pipe in
// commit order, so a link never becomes durable before an older one —
// checked by completing every drain in the order the PFS finishes them.
func TestFIFODrainsMakeDurabilityMonotone(t *testing.T) {
	j := newJob(4)
	s := New(stagedPipeline, 4, 8)
	type done struct {
		at        vtime.Time
		seq, rank int
	}
	var all []done
	var dueAt []vtime.Time
	for k := 0; k < 5; k++ {
		images := j.capture(k%2 == 1)
		var last vtime.Time
		for _, d := range j.commit(s, vtime.Time(k)*vtime.Time(100*vtime.Microsecond), images) {
			all = append(all, done{d.Done, j.seq, d.Rank})
			last = max(last, d.Done)
		}
		if s.findLink(j.seq).durableAt != last {
			t.Errorf("#%d durable@%v, want its last drain %v", j.seq, s.findLink(j.seq).durableAt, last)
		}
		dueAt = append(dueAt, last)
	}
	for k := 1; k < len(dueAt); k++ {
		if dueAt[k] < dueAt[k-1] {
			t.Errorf("#%d due @%v before #%d @%v", k+1, dueAt[k], k, dueAt[k-1])
		}
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].at < all[b].at })
	for _, d := range all {
		s.DrainDone(d.seq, d.rank)
		for seq := 2; seq <= j.seq; seq++ {
			if s.findLink(seq).durable && !s.findLink(seq-1).durable {
				t.Fatalf("after rank %d's drain of #%d @%v: #%d durable, #%d not", d.rank, d.seq, d.at, seq, seq-1)
			}
		}
	}
	for seq := 1; seq <= j.seq; seq++ {
		if !s.findLink(seq).durable {
			t.Errorf("#%d not durable after every drain completed", seq)
		}
	}
	for r, b := range s.bbUsed {
		if b != 0 {
			t.Errorf("rank %d buffer holds %d bytes after every drain", r, b)
		}
	}
}

// unrecoverable is the first line of a walk that found nothing.
func unrecoverable(gens, newest int) string {
	return fmt.Sprintf("coordinator: %d generations retained, newest committed #%d: %v", gens, newest, ErrNoVerifiableGeneration)
}

// TestVerifyOutcomes walks one full link per verdict and checks what
// Choose returns, says and counts for each.
func TestVerifyOutcomes(t *testing.T) {
	const ranks = 3
	cases := []struct {
		name    string
		cfg     storage.Config
		damage  func(s *Store, images []rank.Image)
		line    string                    // the rejection line, "" for a clean link
		counted func(r RestartRecord) int // the field the verdict counts in; nil for none
		charged int                       // ranks charged before the verdict
	}{
		{name: "clean", cfg: storage.DefaultConfig(), charged: ranks},
		{
			name:   "poisoned",
			cfg:    storage.DefaultConfig(),
			damage: func(s *Store, _ []rank.Image) { s.Poison(1, 3) },
			line:   "  #1: poisoned: restart attempt 3 crashed while reading it (injected restart fault)",
		},
		{
			name:    "buffer-only",
			cfg:     stagedPipeline,
			line:    fmt.Sprintf("  #1: buffer-only: %d of %d ranks' images were still in the node burst buffers when the job died; the last drain to the PFS was due @", ranks, ranks),
			counted: func(r RestartRecord) int { return r.BufferOnlyLinks },
		},
		{
			name: "torn",
			cfg:  storage.DefaultConfig(),
			damage: func(_ *Store, images []rank.Image) {
				images[1].Complete = false
				images[1].WrittenBytes = images[1].Bytes() / 2
			},
			line:    "  #1: rank 1: image for checkpoint #1 is torn: ",
			counted: func(r RestartRecord) int { return r.TornLinks },
			charged: 2,
		},
		{
			name: "corrupt",
			cfg:  storage.DefaultConfig(),
			damage: func(_ *Store, images []rank.Image) {
				mem := *images[2].Mem // the image's snapshot is shared: damage a copy
				if memsim.CorruptSnapshot(&mem, 1) != 1 {
					t.Fatal("no page to corrupt")
				}
				images[2].Mem = &mem
			},
			line:    "  #1: rank 2: image for checkpoint #1 is corrupt: memsim: ",
			counted: func(r RestartRecord) int { return r.CorruptLinks },
			charged: 3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := newJob(ranks)
			s := New(tc.cfg, ranks, 2)
			images := j.capture(false)
			j.commit(s, 0, images)
			if tc.damage != nil {
				tc.damage(s, images)
			}
			c := newCharged(ranks)
			rs, err := s.Choose(c.charge)
			var calls int
			for _, n := range c.calls {
				calls += n
			}
			if calls != tc.charged {
				t.Errorf("charged %d images, want %d", calls, tc.charged)
			}
			if tc.line == "" {
				if err != nil || rs.Seq != 1 {
					t.Fatalf("Choose = #%d, %v; want #1", rs.Seq, err)
				}
				rec := s.Rollback(rs)
				var pages int
				for _, p := range c.pages {
					pages += p
				}
				if rec.FromSeq != 1 || rec.FallbackDepth != 0 || rec.VerifiedPages != pages || rec.VerifyTime != vtime.Duration(3*pages) || pages == 0 {
					t.Errorf("record %+v, want #1 at depth 0 with the %d pages charged", rec, pages)
				}
				return
			}
			if !errors.Is(err, ErrNoVerifiableGeneration) {
				t.Fatalf("Choose error %v, want ErrNoVerifiableGeneration", err)
			}
			lines := strings.Split(err.Error(), "\n")
			if len(lines) != 2 || lines[0] != unrecoverable(1, 1) || !strings.HasPrefix(lines[1], tc.line) {
				t.Errorf("error:\n%v\nwant:\n%s\n%s…", err, unrecoverable(1, 1), tc.line)
			}
			if tc.counted == nil && s.restart != (RestartRecord{}) {
				t.Errorf("counted %+v, want nothing", s.restart)
			} else if tc.counted != nil && tc.counted(s.restart) != 1 {
				t.Errorf("counted %+v, want one rejected link of the kind", s.restart)
			}
		})
	}
}

// TestFallbackPicksNewestVerifiablePrefix builds two generations — #1
// full with delta #2, #3 full with deltas #4 and #5 — and rejects links
// from the newest down: each walk lands on the longest verifiable prefix
// of the newest generation that has one, and once nothing is left the
// error names every retained link, newest first.
func TestFallbackPicksNewestVerifiablePrefix(t *testing.T) {
	const ranks = 2
	j := newJob(ranks)
	s := New(storage.DefaultConfig(), ranks, 1)
	var links [][]rank.Image
	for _, incr := range []bool{false, true, false, true, true} {
		images := j.capture(incr)
		j.commit(s, 0, images)
		links = append(links, images)
	}
	if got := fmt.Sprint(s.generations()); got != "[[1 2] [3 4 5]]" {
		t.Fatalf("generations %s, want [[1 2] [3 4 5]]", got)
	}
	tear := func(seq int) {
		img := &links[seq-1][0]
		img.Complete, img.WrittenBytes = false, 0
	}
	choose := func() (Restore, error) { return s.Choose(newCharged(ranks).charge) }

	tear(4)
	if rs, err := choose(); err != nil || rs.Seq != 3 {
		t.Fatalf("with #4 torn: Choose = #%d, %v; want #3", rs.Seq, err)
	}
	tear(3)
	rs, err := choose()
	if err != nil || rs.Seq != 2 {
		t.Fatalf("with #3 torn: Choose = #%d, %v; want #2", rs.Seq, err)
	}
	// The restore point is materialised from the whole chain under it.
	var scratch rank.Image
	img, read := rs.Image(1, &scratch)
	if want := ioTime(links[0][1].Bytes()+links[1][1].Bytes(), ReadBandwidth); !img.Full || img.Seq != 2 || read != want {
		t.Errorf("rank 1 at #2: full=%v seq=%d read %v; want full #2 read in %v", img.Full, img.Seq, read, want)
	}

	s.Poison(1, 1)
	_, err = choose()
	want := strings.Join([]string{
		unrecoverable(2, 5),
		"  #5: not examined: a delta whose chain starts at rejected #3",
		"  #4: not examined: a delta whose chain starts at rejected #3",
		"  #3: rank 0: image for checkpoint #3 is torn: 0 of ",
	}, "\n")
	tail := "\n  #2: not examined: a delta whose chain starts at rejected #1" +
		"\n  #1: poisoned: restart attempt 1 crashed while reading it (injected restart fault)"
	if !errors.Is(err, ErrNoVerifiableGeneration) || !strings.HasPrefix(err.Error(), want) || !strings.HasSuffix(err.Error(), tail) {
		t.Errorf("error:\n%v\nwant:\n%s…%s", err, want, tail)
	}

	// Rolling back to #2 drops the newer generation and hands over the
	// accounting of every walk since: #4 torn once, #3 twice.
	rec := s.Rollback(rs)
	if rec.FromSeq != 2 || rec.FallbackDepth != 3 || rec.TornLinks != 3 || rec.CorruptLinks != 0 {
		t.Errorf("record %+v, want #2 at depth 3 with 3 torn links", rec)
	}
	if got := fmt.Sprint(s.generations()); got != "[[1 2]]" || s.Newest() != 2 || s.ChainLen() != 2 {
		t.Errorf("after rollback: generations %s, newest #%d, chain %d; want [[1 2]], #2, 2", got, s.Newest(), s.ChainLen())
	}
	if s.restart != (RestartRecord{}) {
		t.Errorf("rollback left accounting behind: %+v", s.restart)
	}
}

// TestRetiredLinkArraysAreRecycled: Slots hands out again the image
// arrays of the links retention retired and Rollback dropped, so a run
// allocates at most one array more than it retains links.
func TestRetiredLinkArraysAreRecycled(t *testing.T) {
	const ranks = 3
	j := newJob(ranks)
	s := New(storage.DefaultConfig(), ranks, 1)
	commit := func(incremental bool) []rank.Image {
		images := j.captureInto(s.Slots(ranks), incremental)
		j.commit(s, 0, images)
		return images
	}
	l1, l2, l3 := commit(false), commit(false), commit(false) // #3 retires #1
	if &l3[0] == &l1[0] || &l3[0] == &l2[0] {
		t.Fatal("#3 captured into a retained link's array")
	}
	if l4 := commit(true); &l4[0] != &l1[0] {
		t.Errorf("#4 captured into a new array, want retired #1's")
	}
	l5 := commit(false) // retires #2
	l6 := commit(true)
	if &l6[0] != &l2[0] {
		t.Errorf("#6 captured into a new array, want retired #2's")
	}
	if got := fmt.Sprint(s.generations()); got != "[[3 4] [5 6]]" {
		t.Fatalf("generations %s, want [[3 4] [5 6]]", got)
	}

	// Rolling back to #4 drops #5 and #6; their arrays come back.
	l5[0].Complete = false
	rs, err := s.Choose(newCharged(ranks).charge)
	if err != nil || rs.Seq != 4 {
		t.Fatalf("with #5 torn: Choose = #%d, %v; want #4", rs.Seq, err)
	}
	s.Rollback(rs)
	dropped := map[*rank.Image]bool{&l5[0]: true, &l6[0]: true}
	for k := 0; k < 2; k++ {
		if images := s.Slots(ranks); !dropped[&images[0]] {
			t.Errorf("Slots after the rollback handed out a new array, want one of #5's and #6's")
		} else {
			delete(dropped, &images[0])
		}
	}

	// A long run holds two generations of two links: five arrays at most.
	j, s = newJob(ranks), New(storage.DefaultConfig(), ranks, 1)
	arrays := map[*rank.Image]bool{}
	for k := 0; k < 20; k++ {
		arrays[&commit(k%2 == 1)[0]] = true
	}
	if len(arrays) != 5 {
		t.Errorf("20 commits retaining 4 links used %d image arrays, want 5", len(arrays))
	}
}

// imageState renders what restoring from img reads: the memory's content
// digest and the small state.
func imageState(img *rank.Image) string {
	return fmt.Sprintf("%d %d %d %016x %v %v %v %v %+v %v %v", img.RankID, img.PC, img.Clock, img.Mem.Fingerprint(),
		img.Inbox, img.PendingReqs, img.Comms, img.CommIDs, img.Stats, img.Virt.Next, img.Virt.Entries)
}

// rankState renders a live rank's state the same way, with its first
// app.state byte — the seq of the checkpoint it was restored from.
func rankState(r *rank.Rank) string {
	var first []byte
	for _, rg := range r.Mem().RegionsOf(memsim.UpperHalf) {
		if rg.Name == "app.state" {
			first, _ = r.Mem().Read(rg.Addr, 0, 1)
		}
	}
	comms := make([]int, r.CommCount())
	for i := range comms {
		comms[i] = r.CommID(i)
	}
	return fmt.Sprintf("%v %d %d %016x %d %v %v %+v", first, r.PC(), r.Clock().Now(), r.Mem().Fingerprint(),
		r.InboxLen(), r.PendingRequests(), comms, r.Stats())
}

// TestRestoreOutlivesRecycledArray: neither a rank restored from a link
// nor the overlay Restore.Image built for it points into the link's
// image array, so once the array is recycled and captured over, both
// read what they read before.
func TestRestoreOutlivesRecycledArray(t *testing.T) {
	const ranks = 2
	j := newJob(ranks)
	s := New(storage.DefaultConfig(), ranks, 0)
	l1 := j.captureInto(s.Slots(ranks), false)
	j.commit(s, 0, l1)
	l2 := j.captureInto(s.Slots(ranks), true)
	j.commit(s, 0, l2)
	rs, err := s.Choose(newCharged(ranks).charge)
	if err != nil || rs.Seq != 2 {
		t.Fatalf("Choose = #%d, %v; want #2", rs.Seq, err)
	}
	var overlaid rank.Image
	img, _ := rs.Image(1, &overlaid)
	if img != &overlaid {
		t.Fatal("rank 1 at delta #2 is not an overlay")
	}
	restored := new(rank.Rank)
	rank.FromImage(restored, img, kernelsim.NewForTable(kernelsim.Unpatched, virtid.ImplSharded), nil, nil, 0)
	s.Rollback(rs)
	wantImage, wantRank := imageState(&overlaid), rankState(restored)
	if !strings.HasPrefix(wantRank, "[2] ") {
		t.Fatalf("restored rank reads %s, want app.state's first byte 2", wantRank)
	}

	// Full link #3 retires the chain; its deltas capture into the chain's
	// arrays.
	old := map[*rank.Image]bool{&l1[0]: true, &l2[0]: true}
	for len(old) > 0 {
		images := s.Slots(ranks)
		delete(old, &images[0])
		j.commit(s, 0, j.captureInto(images, j.seq >= 3))
		if j.seq > 10 {
			t.Fatal("the chain's arrays were never recycled")
		}
	}
	if l1[1].Seq == 1 || l2[1].Seq == 2 {
		t.Fatalf("the arrays hold #%d and #%d, want later captures", l1[1].Seq, l2[1].Seq)
	}
	if got := imageState(&overlaid); got != wantImage {
		t.Errorf("overlay after recycling:\n got %s\nwant %s", got, wantImage)
	}
	if got := rankState(restored); got != wantRank {
		t.Errorf("restored rank after recycling:\n got %s\nwant %s", got, wantRank)
	}
}
