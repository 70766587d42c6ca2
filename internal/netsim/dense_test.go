package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
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

// mapNet is the reference model. Its messages are the real network's
// own *Message values, so "the same message came out" is pointer
// equality.
type mapNet struct {
	queues   map[Pair][]*Message
	counters Counters
}

func newMapNet() *mapNet {
	return &mapNet{queues: make(map[Pair][]*Message), counters: make(Counters)}
}

func (m *mapNet) send(msg *Message) {
	p := Pair{Src: msg.Src, Dst: msg.Dst}
	m.queues[p] = append(m.queues[p], msg)
	pc := m.counters[p]
	pc.Sent++
	m.counters[p] = pc
}

func (m *mapNet) recv(dst, src int, by vtime.Time) *Message {
	p := Pair{Src: src, Dst: dst}
	q := m.queues[p]
	if len(q) == 0 || q[0].Arrive > by {
		return nil
	}
	m.queues[p] = q[1:]
	pc := m.counters[p]
	pc.Received++
	m.counters[p] = pc
	return q[0]
}

func (m *mapNet) drainTo(dst int) []*Message {
	var pairs []Pair
	for p, q := range m.queues {
		if p.Dst == dst && len(q) > 0 {
			pairs = append(pairs, p)
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Src < pairs[j].Src })
	var out []*Message
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
	m.queues = make(map[Pair][]*Message)
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
}

func (h *harness) failf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("step %d: %s", h.step, fmt.Sprintf(format, args...))
}

func (h *harness) rank() int { return h.p.next() % maxRank }

func sameMessages(a, b []*Message) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (h *harness) send() {
	src, dst := h.rank(), h.rank()
	h.now += vtime.Time(h.p.next() % 4 * 500)
	bytes := uint64(h.p.next()) * 1000
	msg, _ := h.n.Send(src, dst, h.step, bytes, vtime.Stamp{Rank: src, When: h.now})
	h.m.send(msg)
}

// recv receives at a time drawn around the send clock, so the arrival
// gate both passes and blocks.
func (h *harness) recv() {
	dst, src := h.rank(), h.rank()
	by := h.now + vtime.Time(h.p.next()%8*400)
	got, want := h.n.Recv(dst, src, by), h.m.recv(dst, src, by)
	if got != want {
		h.failf("Recv(dst=%d, src=%d, by=%v) = %+v, model %+v", dst, src, by, got, want)
	}
}

func (h *harness) drainTo() {
	dst := h.rank()
	got, want := h.n.DrainTo(dst), h.m.drainTo(dst)
	if !sameMessages(got, want) {
		h.failf("DrainTo(%d) returned %d messages, model %d, or in a different order", dst, len(got), len(want))
	}
}

// snapshot takes the counters the way a checkpoint commit does; the
// network must be drained first, as the coordinator guarantees.
func (h *harness) snapshot() {
	for dst := 0; dst < maxRank; dst++ {
		h.n.DrainTo(dst)
		h.m.drainTo(dst)
	}
	h.saved, h.hasSaved = h.n.CountersSnapshot(), true
}

func (h *harness) restore() {
	if !h.hasSaved {
		return
	}
	h.n.Restore(h.saved)
	h.m.restore(h.saved)
}

// check compares everything the network exposes with the model.
func (h *harness) check() {
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
	h := &harness{t: t, p: &program{b: prog}, n: New(testParams()), m: newMapNet()}
	for ; !h.p.done() && h.step < 400; h.step++ {
		switch op := h.p.next() % 16; op {
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
// burst grows it in order, and a popped slot does not keep its message
// alive.
func TestPairRingWrapsAndGrows(t *testing.T) {
	var p pairState
	msgs := make([]*Message, 64)
	for i := range msgs {
		msgs[i] = &Message{Seq: uint64(i)}
	}
	next, want := 0, 0
	pop := func() {
		t.Helper()
		if got := p.pop(); got != msgs[want] {
			t.Fatalf("pop = seq %d, want seq %d", got.Seq, want)
		}
		want++
	}
	p.push(msgs[next])
	next++
	for i := 0; i < 20; i++ { // one in, one out, never empty
		p.push(msgs[next])
		next++
		pop()
	}
	if len(p.buf) != 2 {
		t.Errorf("steady two-deep queue grew its ring to %d slots", len(p.buf))
	}
	for ; next < len(msgs); next++ { // burst across a wrapped head
		p.push(msgs[next])
	}
	for p.n > 0 {
		pop()
	}
	if want != len(msgs) {
		t.Errorf("popped %d messages, pushed %d", want, len(msgs))
	}
	for i, m := range p.buf {
		if m != nil {
			t.Errorf("ring slot %d still references a popped message", i)
		}
	}
}
