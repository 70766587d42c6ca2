// Package ckptstore is the checkpoint generation store: where committed
// images live between the checkpoint that wrote them and the restart that
// reads them back (source paper §2–3; generations, burst-buffer staging
// and fallback after arXiv:2103.08546).
//
// Write prices one rank's image write: a transfer on the contended
// parallel filesystem (one FIFO pipe, where the §3.4 stragglers emerge),
// or a copy into the rank's node burst buffer with the overflow written
// through. Commit installs the written images as a link: a full link
// starts a generation, a delta extends the newest one, and generations
// past the retention bound are deleted with the buffer space they held;
// Slots hands their image arrays to the next links to capture into.
// A staged link is durable once DrainDone has seen each of its drains;
// until then it is a buffer-only copy that dies with the node. Choose
// picks the newest restore point whose chain is durable, unpoisoned and
// verifies; Rollback makes it the newest committed state.
//
// The store knows ranks only as indexes; it never sees the scheduler,
// the network or the protocol.
package ckptstore

import (
	"errors"
	"fmt"
	"strings"

	"mana/internal/rank"
	"mana/internal/storage"
	"mana/internal/vtime"
)

// ReadBandwidth is the per-rank parallel-filesystem bandwidth restart
// reads images at, in bytes per second.
const ReadBandwidth = 4e9

// ErrNoVerifiableGeneration means Choose rejected every retained link, so
// the job is unrecoverable; the error wrapping it says why for each link,
// newest first. The store's error texts keep the coordinator prefix the
// CLI has always printed.
var ErrNoVerifiableGeneration = errors.New("coordinator: no verifiable checkpoint generation")

// RestartRecord describes one successful restart.
type RestartRecord struct {
	FromSeq int
	// ResumeClock is the restored maximum rank clock.
	ResumeClock vtime.Time
	// FallbackDepth is how many committed checkpoints the restore point
	// sits behind the newest (0 = restored from the newest link; each
	// torn, corrupt or poisoned link walks it one deeper).
	FallbackDepth int
	// LostWork is the virtual application time the fallback discards: the
	// dead timeline's high-water clock minus the restored clock — work the
	// replay must recompute.
	LostWork vtime.Duration
	// TornLinks and CorruptLinks count chain links rejected during the
	// verification walk (across retried attempts of this restart);
	// VerifiedPages and VerifyTime account the per-page FNV rehash cost
	// the walk charged to the ranks' checkpoint-overhead clocks.
	TornLinks     int
	CorruptLinks  int
	VerifiedPages int
	VerifyTime    vtime.Duration
	// BufferOnlyLinks counts links the walk skipped because their images
	// were staged in node burst buffers but never finished draining to
	// the PFS when the job died — copies that died with the node, rejected
	// on metadata alone, without per-page verification cost.
	BufferOnlyLinks int
}

// link is one committed checkpoint: the per-rank images of its commit
// point. The images array is the link's only while it is retained: once
// the link retires or is rolled back, the array goes back to the store
// for a later link to capture into.
type link struct {
	seq    int
	images []rank.Image
	// durable marks the images safe on the PFS; durableAt is when a staged
	// link's last drain is due.
	durable   bool
	durableAt vtime.Time
	// staged[r] is rank r's undrained bytes (nil once none are left), so
	// a drain completion or the link's retirement frees the buffer space.
	pendingDrains int
	staged        []uint64
}

// drainReq is one rank's staged payload, due at the PFS at arrive.
type drainReq struct {
	rank   int
	bytes  uint64
	arrive vtime.Time
}

// Drain is one burst-buffer→PFS drain Commit queued: Rank's staged copy
// lands on the PFS at Done, after queueing Wait behind earlier transfers.
type Drain struct {
	Rank int
	Done vtime.Time
	Wait vtime.Duration
}

// Store holds one run's retained generations and the storage pipeline
// their writes contend on.
type Store struct {
	cfg    storage.Config
	retain int      // generations kept beyond the newest
	gens   [][]link // oldest first; each a full link, then its deltas in commit order

	pfs    storage.PFS
	bbUsed []uint64   // per-rank undrained burst-buffer bytes (nil without staging)
	staged []drainReq // the drains the writes since the last Commit owe
	drains []Drain    // Commit's reusable result

	poisoned map[int]int   // checkpoint seq → the restart attempt that destroyed it
	restart  RestartRecord // Choose's accounting, until Rollback hands it over

	// free holds the image arrays of retired and rolled-back links for
	// Slots to hand out again, so a run allocates at most one array more
	// than it retains links.
	free [][]rank.Image
}

// New returns an empty store for ranks ranks on the storage pipeline cfg,
// keeping the newest generation and retain older ones.
func New(cfg storage.Config, ranks, retain int) *Store {
	s := &Store{cfg: cfg, retain: max(retain, 0), pfs: storage.NewPFS(cfg.PFSBandwidth)}
	if cfg.Staging {
		s.bbUsed = make([]uint64, ranks)
	}
	return s
}

// ioTime is the time bytes take at bandwidth; non-positive is free I/O.
func ioTime(bytes uint64, bandwidth float64) vtime.Duration {
	if bandwidth <= 0 {
		return 0
	}
	return vtime.DurationOf(float64(bytes) / bandwidth)
}

// Written is what one rank's image write cost: its time (PFS queueing
// included) and the part of it queued behind earlier transfers, and how
// the payload split between the node burst buffer and the write-through
// its capacity forced (both zero without staging).
type Written struct {
	Time, PFSWait   vtime.Duration
	Staged, Spilled uint64
}

// Write prices rank's write of bytes starting at start: a direct PFS
// transfer, or a staging copy at burst-buffer bandwidth with what exceeds
// the buffer's free capacity written through to the PFS. Staged bytes
// become a drain the next Commit queues.
func (s *Store) Write(rank int, start vtime.Time, bytes uint64) Written {
	var w Written
	if !s.cfg.Staging {
		done, wait := s.pfs.Write(start, bytes)
		w.PFSWait, w.Time = wait, done.Sub(start)
	} else {
		var free uint64
		if s.cfg.BBCapacity > s.bbUsed[rank] {
			free = s.cfg.BBCapacity - s.bbUsed[rank]
		}
		w.Staged = min(bytes, free)
		w.Spilled = bytes - w.Staged
		w.Time = ioTime(w.Staged, s.cfg.BBBandwidth)
		if w.Spilled > 0 {
			done, wait := s.pfs.Write(start.Add(w.Time), w.Spilled)
			w.PFSWait, w.Time = wait, done.Sub(start)
		}
		s.bbUsed[rank] += w.Staged
		if w.Staged > 0 {
			s.staged = append(s.staged, drainReq{rank: rank, bytes: w.Staged, arrive: start.Add(w.Time)})
		}
	}
	return w
}

// Slots returns an array of n image slots for the next link to capture
// into: a retired link's array when one is free, else a new one. A reused
// array still holds the retired link's images; capture overwrites every
// field (rank.Rank.CaptureInto), so nothing clears it.
func (s *Store) Slots(n int) []rank.Image {
	k := len(s.free)
	if k == 0 {
		return make([]rank.Image, n)
	}
	images := s.free[k-1]
	s.free = s.free[:k-1]
	return images[:n]
}

// retire frees what a dropped generation (or the tail of one) held: its
// links' undrained buffer space and their image arrays.
func (s *Store) retire(g []link) {
	for li := range g {
		lk := &g[li]
		for r, b := range lk.staged {
			s.bbUsed[r] -= b
		}
		lk.staged = nil
		lk.pendingDrains = 0
		s.free = append(s.free, lk.images)
	}
}

// Commit installs checkpoint seq — one image per rank, all full or all
// delta — as the newest committed state. A full link starts a generation
// and retires those past the retention bound, freeing the buffer space
// and image arrays they held; a delta extends the newest generation. The
// link is durable at once unless the writes since the last Commit staged
// bytes: then each staging rank's drain is queued on the PFS, in rank
// order, and returned for DrainDone to complete (the next Commit reuses it).
func (s *Store) Commit(seq int, images []rank.Image) []Drain {
	for i := range images[1:] {
		if images[i+1].Full != images[0].Full {
			panic(fmt.Sprintf("ckptstore: checkpoint #%d mixes full and delta images", seq))
		}
	}
	l := link{seq: seq, images: images}
	if images[0].Full || len(s.gens) == 0 {
		s.gens = append(s.gens, []link{l})
		if drop := len(s.gens) - (s.retain + 1); drop > 0 {
			for _, old := range s.gens[:drop] {
				s.retire(old)
			}
			s.gens = append(s.gens[:0], s.gens[drop:]...)
		}
	} else {
		s.gens[len(s.gens)-1] = append(s.gens[len(s.gens)-1], l)
	}
	g := s.gens[len(s.gens)-1]
	lk := &g[len(g)-1]
	s.drains = s.drains[:0]
	if len(s.staged) == 0 {
		lk.durable = true
		return s.drains
	}
	lk.staged = make([]uint64, len(s.bbUsed))
	for _, dr := range s.staged {
		done, wait := s.pfs.Write(dr.arrive, dr.bytes)
		lk.staged[dr.rank] = dr.bytes
		lk.pendingDrains++
		lk.durableAt = max(lk.durableAt, done)
		s.drains = append(s.drains, Drain{Rank: dr.rank, Done: done, Wait: wait})
	}
	s.staged = s.staged[:0]
	return s.drains
}

// DrainDone completes rank's drain of checkpoint seq, freeing its buffer
// space; the link is durable once its last drain is done. A link retired
// meanwhile freed its space when it was dropped, so this is a no-op.
func (s *Store) DrainDone(seq, rank int) {
	lk := s.findLink(seq)
	if lk == nil || lk.staged == nil {
		return
	}
	s.bbUsed[rank] -= lk.staged[rank]
	lk.staged[rank] = 0
	lk.pendingDrains--
	if lk.pendingDrains == 0 {
		lk.staged = nil
		lk.durable = true
	}
}

// findLink locates a retained link by seq, newest first.
func (s *Store) findLink(seq int) *link {
	for gi := len(s.gens) - 1; gi >= 0; gi-- {
		links := s.gens[gi]
		for li := len(links) - 1; li >= 0; li-- {
			if links[li].seq == seq {
				return &links[li]
			}
		}
	}
	return nil
}

// Newest returns the newest committed checkpoint's seq (0 before the
// first commit).
func (s *Store) Newest() int {
	if len(s.gens) == 0 {
		return 0
	}
	g := s.gens[len(s.gens)-1]
	return g[len(g)-1].seq
}

// ChainLen returns how many links the newest generation holds (0 before
// the first commit).
func (s *Store) ChainLen() int {
	if len(s.gens) == 0 {
		return 0
	}
	return len(s.gens[len(s.gens)-1])
}

// Images returns retained checkpoint seq's images, only to be read, or
// nil when it is not retained. The array is valid only until the link
// retires or is rolled back: then a later link captures into it.
func (s *Store) Images(seq int) []rank.Image {
	if lk := s.findLink(seq); lk != nil {
		return lk.images
	}
	return nil
}

// Poison marks checkpoint seq destroyed by restart attempt attempt, which
// crashed reading it; later walks reject it.
func (s *Store) Poison(seq, attempt int) {
	if s.poisoned == nil {
		s.poisoned = make(map[int]int)
	}
	s.poisoned[seq] = attempt
}

// Restore is the restore point Choose picked: checkpoint Seq.
type Restore struct {
	Seq   int
	links []link // the verified chain of generation gen, ending at Seq
	gen   int
}

// Image materialises rank i's image at the restore point — the full link
// overlaid with each delta up to it — and returns it with the time
// reading the chain off the PFS takes. The result is the store's own
// image or lives in *scratch; either way it is only to be read, and a
// pointer into the store is valid only until the link retires or is
// rolled back (what the image's fields point at stays valid).
func (r *Restore) Image(i int, scratch *rank.Image) (*rank.Image, vtime.Duration) {
	img := &r.links[0].images[i]
	readBytes := img.Bytes()
	for l := 1; l < len(r.links); l++ {
		delta := &r.links[l].images[i]
		readBytes += delta.Bytes()
		*scratch = delta.OverlayOn(img)
		img = scratch
	}
	return img, ioTime(readBytes, ReadBandwidth)
}

// Choose picks the newest verifiable restore point. It walks the
// generations newest first; in each, the usable chain is the longest
// prefix of links that are durable, not poisoned, and whose every image
// verifies (a torn image fails outright, the rest are rehashed page by
// page). charge is called for each image checked, links then ranks
// ascending, with the pages rehashed; it charges the rank and returns the
// cost. A generation whose full link fails falls back a whole generation.
// When every link is rejected the error wraps ErrNoVerifiableGeneration.
// The walk's accounting accumulates until Rollback, so a restart's record
// counts its failed attempts too.
func (s *Store) Choose(charge func(rank, pages int) vtime.Duration) (Restore, error) {
	newest := s.Newest()
	gi, prefix := -1, 0
	var rejected []error // why each generation's full link failed, newest first
	for g := len(s.gens) - 1; g >= 0 && prefix == 0; g-- {
		var why error
		prefix, why = s.verifyPrefix(s.gens[g], charge)
		gi = g
		rejected = append(rejected, why)
	}
	if prefix == 0 {
		return Restore{}, fmt.Errorf("coordinator: %d generations retained, newest committed #%d: %w%s",
			len(s.gens), newest, ErrNoVerifiableGeneration, s.rejectedLinks(rejected))
	}
	links := s.gens[gi][:prefix]
	return Restore{Seq: links[prefix-1].seq, links: links, gen: gi}, nil
}

// verifyPrefix returns how many of the generation's links are usable, up
// to the first poisoned, buffer-only, torn or corrupt one, and why it
// stopped there (nil when every link verified).
func (s *Store) verifyPrefix(g []link, charge func(rank, pages int) vtime.Duration) (n int, stopped error) {
	for li := range g {
		lk := &g[li]
		if attempt := s.poisoned[lk.seq]; attempt != 0 {
			return n, fmt.Errorf("poisoned: restart attempt %d crashed while reading it (injected restart fault)", attempt)
		}
		if !lk.durable {
			// The only copies died with the node's burst buffers: there is
			// nothing on the filesystem to rehash.
			s.restart.BufferOnlyLinks++
			return n, fmt.Errorf("buffer-only: %d of %d ranks' images were still in the node burst buffers when the job died; the last drain to the PFS was due @%v",
				lk.pendingDrains, len(lk.images), lk.durableAt)
		}
		for i := range lk.images {
			img := &lk.images[i]
			pages, err := img.Verify()
			cost := charge(i, pages)
			s.restart.VerifiedPages += pages
			s.restart.VerifyTime += cost
			if err != nil {
				if !img.Complete {
					s.restart.TornLinks++
				} else {
					s.restart.CorruptLinks++
				}
				return n, err
			}
		}
		n++
	}
	return n, nil
}

// rejectedLinks renders a walk that found nothing to restore, one line per
// retained link, newest first. rejected[k] is why the k-th newest
// generation's full link failed; the deltas on it were never examined.
func (s *Store) rejectedLinks(rejected []error) string {
	var b strings.Builder
	for k, why := range rejected {
		links := s.gens[len(s.gens)-1-k]
		for li := len(links) - 1; li > 0; li-- {
			fmt.Fprintf(&b, "\n  #%d: not examined: a delta whose chain starts at rejected #%d", links[li].seq, links[0].seq)
		}
		fmt.Fprintf(&b, "\n  #%d: %v", links[0].seq, why)
	}
	return b.String()
}

// Rollback makes r the newest committed state — every newer link failed
// or was poisoned, so it is dropped and the next delta chains onto what
// was restored — and returns the restart's record so far: where it
// restored from and the accounting of every Choose since the last
// Rollback. The crash took the pipeline's transient state with it: PFS
// transfers in flight die with their timeline and the burst buffers come
// back empty, which is why an undrained link stays non-durable.
func (s *Store) Rollback(r Restore) RestartRecord {
	rec := s.restart
	rec.FromSeq, rec.FallbackDepth = r.Seq, s.Newest()-r.Seq
	s.restart = RestartRecord{}
	for _, g := range s.gens[r.gen+1:] {
		s.retire(g)
	}
	s.retire(s.gens[r.gen][len(r.links):])
	s.gens[r.gen] = r.links
	s.gens = s.gens[:r.gen+1]
	s.pfs.Reset()
	clear(s.bbUsed)
	s.staged = s.staged[:0]
	return rec
}
