package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"mana/internal/vtime"
)

// This file drives the dense per-destination pair tables against a
// reference model that keeps pair state the way the package did before
// them — a map[Pair] of FIFO slices and a map[Pair] of counters —
// transcribed here and used nowhere else. One interpreter turns a byte
// string into a sequence of network operations and applies each to
// both; after every step everything observable must agree.

// mapNet is the reference model. It keeps messages by value, as the
// network's rings do, so "the same message came out" is equality of
// every field.
type mapNet struct {
	queues   map[Pair][]Message
	counters Counters
}

func newMapNet() *mapNet {
	return &mapNet{queues: make(map[Pair][]Message), counters: make(Counters)}
}

func (m *mapNet) send(msg Message) {
	p := Pair{Src: msg.Src, Dst: msg.Dst}
	m.queues[p] = append(m.queues[p], msg)
	pc := m.counters[p]
	pc.Sent++
	m.counters[p] = pc
}

func (m *mapNet) recv(dst, src int, by vtime.Time) (Message, bool) {
	p := Pair{Src: src, Dst: dst}
	q := m.queues[p]
	if len(q) == 0 || q[0].Arrive > by {
		return Message{}, false
	}
	m.queues[p] = q[1:]
	pc := m.counters[p]
	pc.Received++
	m.counters[p] = pc
	return q[0], true
}

func (m *mapNet) drainTo(dst int) []Message {
	var pairs []Pair
	for p, q := range m.queues {
		if p.Dst == dst && len(q) > 0 {
			pairs = append(pairs, p)
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Src < pairs[j].Src })
	var out []Message
	for _, p := range pairs {
		q := m.queues[p]
		out = append(out, q...)
		pc := m.counters[p]
		pc.Received += uint64(len(q))
		m.counters[p] = pc
		delete(m.queues, p)
	}
	return out
}

func (m *mapNet) inFlight() (n uint64) {
	for _, q := range m.queues {
		n += uint64(len(q))
	}
	return n
}

func (m *mapNet) inFlightTo(dst int) (n uint64) {
	for p, q := range m.queues {
		if p.Dst == dst {
			n += uint64(len(q))
		}
	}
	return n
}

func (m *mapNet) peersTo(dst int) (n int) {
	for p := range m.counters {
		if p.Dst == dst {
			n++
		}
	}
	return n
}

func (m *mapNet) totalSent() (n uint64) {
	for _, pc := range m.counters {
		n += pc.Sent
	}
	return n
}

func (m *mapNet) restore(c Counters) {
	m.queues = make(map[Pair][]Message)
	m.counters = c.Clone()
}

// program feeds the interpreter: a byte string read front to back, zeros
// once exhausted.
type program struct {
	b []byte
	i int
}

func (p *program) done() bool { return p.i >= len(p.b) }

func (p *program) next() int {
	if p.done() {
		return 0
	}
	p.i++
	return int(p.b[p.i-1])
}

// maxRank bounds the rank ids a program uses: small enough that pairs
// repeat (queues build up, rings wrap and grow), large enough that one
// destination collects a peer list worth searching.
const maxRank = 12

type harness struct {
	t        *testing.T
	p        *program
	n        *Network
	m        *mapNet
	now      vtime.Time // send clock, advanced by the program
	saved    Counters
	hasSaved bool
	step     int
	// held is, per pair, the slot the last Recv on it returned and the
	// message it held then: the slot-lifetime contract says it stays
	// intact until the pair's next receive, whatever is sent meanwhile.
	held map[Pair]heldSlot
	// drained is the buffer DrainTo appends into, reused call to call.
	drained []Message
}

type heldSlot struct {
	slot *Message
	want Message
}

func (h *harness) failf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("step %d: %s", h.step, fmt.Sprintf(format, args...))
}

func (h *harness) rank() int { return h.p.next() % maxRank }

func (h *harness) sendOn(src, dst int) {
	h.now += vtime.Time(h.p.next() % 4 * 500)
	bytes := uint64(h.p.next()) * 1000
	msg, _ := h.n.Send(src, dst, h.step, bytes, vtime.Stamp{Rank: src, When: h.now})
	h.m.send(*msg)
}

func (h *harness) send() { h.sendOn(h.rank(), h.rank()) }

// recv receives at a time drawn around the send clock, so the arrival
// gate both passes and blocks. The pair's held slot is released first —
// this is its next receive — and the slot returned is held instead.
func (h *harness) recv() {
	dst, src := h.rank(), h.rank()
	by := h.now + vtime.Time(h.p.next()%8*400)
	pair := Pair{Src: src, Dst: dst}
	delete(h.held, pair)
	got := h.n.Recv(dst, src, by)
	want, ok := h.m.recv(dst, src, by)
	if (got != nil) != ok || (ok && *got != want) {
		h.failf("Recv(dst=%d, src=%d, by=%v) = %+v, model %+v (%v)", dst, src, by, got, want, ok)
	}
	if ok {
		h.held[pair] = heldSlot{slot: got, want: want}
	}
}

// flood keeps sending on a pair whose received slot is held until the
// pair's ring has filled and grown twice; the held message must come
// through unchanged (check).
func (h *harness) flood() {
	if len(h.held) == 0 {
		return
	}
	pairs := make([]Pair, 0, len(h.held))
	for p := range h.held {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		return pairs[i].Src < pairs[j].Src || pairs[i].Src == pairs[j].Src && pairs[i].Dst < pairs[j].Dst
	})
	pair := pairs[h.p.next()%len(pairs)]
	i, _ := h.n.find(pair.Src, pair.Dst)
	start := len(h.n.peers[pair.Dst][i].buf)
	for len(h.n.peers[pair.Dst][i].buf) < 4*start {
		h.sendOn(pair.Src, pair.Dst)
		h.check()
	}
}

// drainTo empties one destination's pairs into the reused buffer; the
// drain is those pairs' next receive, so their held slots are released.
func (h *harness) drainTo() { h.drainDst(h.rank()) }

func (h *harness) drainDst(dst int) {
	for p := range h.held {
		if p.Dst == dst {
			delete(h.held, p)
		}
	}
	h.drained = h.n.DrainTo(dst, h.drained[:0])
	if want := h.m.drainTo(dst); !slices.Equal(h.drained, want) {
		h.failf("DrainTo(%d) returned %d messages, model %d, or in a different order", dst, len(h.drained), len(want))
	}
}

// snapshot takes the counters the way a checkpoint commit does; the
// network must be drained first, as the coordinator guarantees.
func (h *harness) snapshot() {
	for dst := 0; dst < maxRank; dst++ {
		h.drainDst(dst)
	}
	h.saved, h.hasSaved = h.n.CountersSnapshot(), true
}

func (h *harness) restore() {
	if !h.hasSaved {
		return
	}
	h.n.Restore(h.saved)
	h.m.restore(h.saved)
	clear(h.held)
}

// check compares everything the network exposes with the model, and
// every held slot with the message it held when it was received.
func (h *harness) check() {
	h.t.Helper()
	for p, held := range h.held {
		if *held.slot != held.want {
			h.failf("the slot Recv returned for pair %v changed before the pair's next receive: %+v, was %+v", p, *held.slot, held.want)
		}
	}
	if got, want := h.n.InFlight(), h.m.inFlight(); got != want {
		h.failf("InFlight = %d, model %d", got, want)
	}
	if got, want := h.n.TotalSent(), h.m.totalSent(); got != want {
		h.failf("TotalSent = %d, model %d", got, want)
	}
	for dst := 0; dst < maxRank; dst++ {
		if got, want := h.n.PeersTo(dst), h.m.peersTo(dst); got != want {
			h.failf("PeersTo(%d) = %d, model %d", dst, got, want)
		}
		if got, want := h.n.InFlightTo(dst), h.m.inFlightTo(dst); got != want {
			h.failf("InFlightTo(%d) = %d, model %d", dst, got, want)
		}
	}
	snap := h.n.CountersSnapshot()
	if !reflect.DeepEqual(snap, h.m.counters) {
		h.failf("CountersSnapshot = %v, model %v", snap, h.m.counters)
	}
	if got, want := snap.InFlight(), h.m.inFlight(); got != want {
		h.failf("counters say %d in flight, queues hold %d", got, want)
	}
}

// runDifferential interprets prog against both representations.
func runDifferential(t *testing.T, prog []byte) {
	h := &harness{t: t, p: &program{b: prog}, n: New(testParams()), m: newMapNet(), held: make(map[Pair]heldSlot)}
	for ; !h.p.done() && h.step < 400; h.step++ {
		switch op := h.p.next() % 17; op {
		case 0, 1, 2, 3, 4, 5, 6:
			h.send()
		case 7, 8, 9, 10, 11:
			h.recv()
		case 12, 13:
			h.drainTo()
		case 14:
			h.snapshot()
		case 15:
			h.restore()
		case 16:
			h.flood()
		}
		h.check()
	}
}

func TestNetsimVsMap(t *testing.T) {
	runs := 150
	if testing.Short() {
		runs = 30
	}
	for seed := 0; seed < runs; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		prog := make([]byte, 1200)
		rng.Read(prog)
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runDifferential(t, prog) })
	}
}

func FuzzNetsimVsMap(f *testing.F) {
	for seed := 0; seed < 8; seed++ {
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		prog := make([]byte, 400)
		rng.Read(prog)
		f.Add(prog)
	}
	f.Fuzz(runDifferential)
}

// TestPairRingWrapsAndGrows pins the FIFO ring directly: a queue that is
// never fully drained wraps around its buffer instead of growing it, a
// burst grows it in order, and the slot pop returns is not the one the
// next push writes, even when that push fills the ring's last free slot
// but one.
func TestPairRingWrapsAndGrows(t *testing.T) {
	var p pairState
	next, want := 0, 0
	push := func() {
		p.push(Message{Seq: uint64(next)})
		next++
	}
	pop := func() *Message {
		t.Helper()
		got := p.pop()
		if got.Seq != uint64(want) {
			t.Fatalf("pop = seq %d, want seq %d", got.Seq, want)
		}
		want++
		return got
	}
	// After every pop the next push must leave the slot pop returned
	// alone: the ring grows before it would fill.
	popPush := func() {
		t.Helper()
		held := pop()
		push()
		if held.Seq != uint64(want-1) {
			t.Fatalf("a push overwrote the slot pop just returned: seq %d, want %d", held.Seq, want-1)
		}
	}
	push()
	push()
	for i := 0; i < 20; i++ { // one out, one in, never below one deep
		popPush()
	}
	if len(p.buf) != 4 {
		t.Errorf("steady two-deep queue grew its ring to %d slots, want 4 (two plus slack)", len(p.buf))
	}
	for next < 64 { // burst across a wrapped head
		push()
	}
	for next < 128 { // a full ring that wraps
		popPush()
	}
	for p.n > 0 {
		pop()
	}
	if want != next {
		t.Errorf("popped %d messages, pushed %d", want, next)
	}
}
