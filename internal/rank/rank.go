// Package rank implements the simulated MPI rank: the unit of execution
// the checkpoint coordinator manages.
//
// A Rank owns exactly the state a real MANA-wrapped MPI process owns: a
// virtual clock (vtime.Clock), a split-process address space
// (memsim.AddressSpace), a kernel cost personality (kernelsim.Kernel)
// and a handle-virtualisation table (virtid.Table). It executes a
// scripted workload — compute phases, point-to-point sends and receives,
// barriers and allreduces, heap growth — and charges the MANA per-call
// overhead (FS-register round trip + handle-virtualisation lookups +
// record/replay metadata, paper §3.3) on every MPI call. The lookups are
// real: the rank registers its communicator and datatype at init and a
// request per point-to-point operation, and every MPI call translates
// its handles through the table, so a missing or doubly-registered
// handle is a detectable bug (the rank panics), not a silently wrong
// cost charge.
//
// The rank does not schedule itself: the coordinator's event-driven
// scheduler drives it, because collectives and checkpoints need a global
// view. The rank exposes exactly the transitions the virtual-time event
// loop needs: NextReady reports when the rank can next act, Execute runs
// one operation atomically and reports whether the rank advanced, blocked
// on a receive or arrived at a collective, and Wake retries a blocked
// receive when a delivery event makes a matching message available. A
// blocked or collective-waiting rank has no ready time and therefore
// consumes zero scheduler work until an event transitions it back.
//
// Upper-half memory evolves with progress. Every compute, receive,
// barrier, allreduce and comm-split op the rank completes leaves an
// eight-byte state marker in the app.state region: the value pc+1 at
// offset (pc*8) mod (stateRegionSize-8), a pure function of the op's pc
// and kind, so past pc 8,191 a later marker overwrites an earlier one.
// The markers are written when memory is read, not when each op
// completes: Mem and CaptureImage first replay every marker owed since
// the last read, in pc order and a page at a time, through memsim's one
// write path (AddressSpace.WriteSpan), so dirty bits, copy-on-write of
// frozen pages and page contents come out exactly as if each op had
// written its own, and a timeline that a crash throws away (FromImage
// builds its successor) never writes its markers at all. The rule that
// follows: read rank memory through Mem() every time, and never keep the
// pointer it returns across the rank's progress — that space lacks every
// marker written since. MemFingerprint, the final fingerprint's path,
// hashes the space with the owed markers laid over a copy of app.state
// instead of writing them.
package rank

import (
	"encoding/binary"
	"fmt"
	"iter"
	"slices"

	"mana/internal/fnv1a"
	"mana/internal/kernelsim"
	"mana/internal/memsim"
	"mana/internal/netsim"
	"mana/internal/scenario"
	"mana/internal/virtid"
	"mana/internal/vtime"
)

// State is the rank's scheduler-visible execution state.
type State int

const (
	// Running means the rank is between operations and can start its next
	// scripted op.
	Running State = iota
	// BlockedRecv means the rank has posted a receive with no matching
	// message available; it consumes no scheduler work until a delivery
	// event wakes it.
	BlockedRecv
	// InCollective means the rank has arrived at a collective and is
	// waiting for the remaining participants.
	InCollective
	// Done means the script is exhausted.
	Done
)

// String returns a short name for the state.
func (s State) String() string {
	switch s {
	case Running:
		return "running"
	case BlockedRecv:
		return "blocked-recv"
	case InCollective:
		return "in-collective"
	case Done:
		return "done"
	default:
		return "unknown"
	}
}

// Stats accumulates per-rank workload accounting. Stats are part of the
// checkpoint image: restart restores them and re-execution of replayed
// operations re-increments them, so post-restart totals match an
// uncheckpointed run exactly.
type Stats struct {
	MPICalls     uint64
	MsgsSent     uint64
	MsgsRecvd    uint64
	BytesSent    uint64
	BytesRecvd   uint64
	Collectives  uint64
	CommSplits   uint64
	ComputeTime  vtime.Duration
	ManaOverhead vtime.Duration // per-call MANA cost charged to the clock

	// Handle-virtualisation accounting (§3.3): how many virtual-to-real
	// translations this rank performed, per handle kind; how many table
	// writes (request Register/Deregister on the nonblocking paths); and
	// the modelled virtual time each cost (both subsets of ManaOverhead).
	HandleLookups   uint64
	CommLookups     uint64
	DatatypeLookups uint64
	RequestLookups  uint64
	HandleWrites    uint64
	LookupTime      vtime.Duration
	WriteTime       vtime.Duration
}

// PeerCount is what a rank has counted of its traffic with one peer:
// the messages it sent the peer and those it received from it, drained
// ones included — the §3.1 counters MANA's upper-half wrappers keep. At
// a checkpoint, once the network is drained, every rank's Sent to p
// equals p's Received from it.
type PeerCount struct {
	Peer           int
	Sent, Received uint64
}

// SavedStats is the record images point at: the counters as a capture
// saw them, with their content hash computed once, when the capture
// minted the record, and the rank's per-peer counts, which neither that
// hash nor the checkpoint fingerprint folds.
type SavedStats struct {
	Stats
	// Peers is the rank's PeerCounts, sorted by peer.
	Peers []PeerCount
	// hash is Hash's result; zero for a record assembled any other way.
	hash uint64
	// room holds Peers for a rank of up to two peers, so that a capture
	// mints the record and its copy of the counts in one allocation.
	room [2]PeerCount
}

// Hash returns the counters' content hash — every field in declaration
// order, folded as words — which is what a checkpoint fingerprint
// digests of them. A record a capture minted carries it; any other
// computes it afresh.
func (s *SavedStats) Hash() uint64 {
	if s.hash != 0 {
		return s.hash
	}
	return s.contentHash()
}

func (st *Stats) contentHash() uint64 {
	h := fnv1a.Offset.Word(st.MPICalls).Word(st.MsgsSent).Word(st.MsgsRecvd).
		Word(st.BytesSent).Word(st.BytesRecvd).Word(st.Collectives).Word(st.CommSplits).
		Word(uint64(st.ComputeTime)).Word(uint64(st.ManaOverhead)).
		Word(st.HandleLookups).Word(st.CommLookups).Word(st.DatatypeLookups).Word(st.RequestLookups).
		Word(st.HandleWrites).Word(uint64(st.LookupTime)).Word(uint64(st.WriteTime))
	return uint64(h)
}

// Image is one rank's checkpoint image: everything needed to resume the
// rank bit-identically. A full image carries the complete upper half in
// Mem (memsim.Snapshot); an incremental image (Full == false) instead
// carries only the pages dirtied since the previous checkpoint in Delta,
// and must be overlaid onto its base chain (Overlay) before FromImage
// can consume it. Inbox carries the in-flight messages the drain phase
// buffered at the receiver (§3.1 — drained messages are saved in the
// image and replayed to the application after restart); Virt carries the
// handle-virtualisation table state (sorted, deterministic), from which
// restart rebuilds the table so that live virtual handles keep resolving
// while handles minted in the abandoned timeline do not; Stats carries
// the accounting and the per-peer §3.1 counts. The small state (PC,
// Clock, Inbox, Virt, PendingReqs, Stats) is carried in full by every
// image, delta or not: only memory is worth incrementalising.
//
// An image is a read-only record that points at shared payloads: Mem is
// the snapshot memsim hands out for every capture of an unchanged space,
// Virt the handle table's memoised snapshot, Stats the rank's counters as
// its last capture or restore shared them — each the same pointer from
// image to image while what it describes stays the same. Code that edits
// an image's payload copies it first.
type Image struct {
	RankID int
	PC     int
	Clock  vtime.Time
	// Seq is the checkpoint sequence number this image belongs to and
	// Base the sequence its delta applies on top of (0 for full images);
	// both are assigned by the coordinator when the image commits.
	Seq  int
	Base int
	// Full reports whether Mem carries a self-contained snapshot; when
	// false, Mem is nil and Delta carries the incremental payload instead.
	Full bool
	// Complete reports whether the image's write to the parallel
	// filesystem finished. A torn write (injected fault) leaves it false,
	// with WrittenBytes recording the byte-accurate partial size; restart
	// verification refuses to restore from a torn link.
	Complete bool
	Mem      *memsim.Snapshot
	Delta    memsim.Delta
	// WrittenBytes is the payload actually written — Bytes() for a
	// complete image, less for a torn one.
	WrittenBytes uint64
	// StoredBytes is the payload the storage layer actually moves:
	// WrittenBytes after the coordinator's delta-page compression stage
	// (equal to WrittenBytes when compression is off or the image is
	// full). It is storage accounting only — restore and verification
	// work on the uncompressed payload.
	StoredBytes uint64
	Inbox       []netsim.Message
	Virt        *virtid.Snapshot
	// PendingReqs is the FIFO of request handles posted by nonblocking
	// operations and not yet retired by a wait — live handles that must
	// keep resolving after restart.
	PendingReqs []virtid.VID
	// Comms and CommIDs carry the rank's communicator slot table: slot i
	// holds virtual handle Comms[i] for the communicator the coordinator
	// knows globally as CommIDs[i] (slot 0 is MPI_COMM_WORLD, id 0). The
	// coordinator rebuilds its membership registry from these on restart.
	Comms   []virtid.VID
	CommIDs []int
	Stats   *SavedStats
}

// Bytes returns the payload the image writes to the parallel filesystem:
// the full memory snapshot, or only the carried dirty pages for an
// incremental image, plus buffered drained messages either way.
func (img *Image) Bytes() uint64 {
	if img.Full {
		return img.Mem.TotalBytes() + img.inboxBytes()
	}
	return img.Delta.PayloadBytes() + img.inboxBytes()
}

func (img *Image) inboxBytes() (total uint64) {
	for i := range img.Inbox {
		total += img.Inbox[i].Bytes
	}
	return total
}

// FullBytes returns what a self-contained image of the same state would
// have written — the full-vs-incremental comparison the report records.
func (img *Image) FullBytes() uint64 {
	if img.Full {
		return img.Mem.TotalBytes() + img.inboxBytes()
	}
	return img.Delta.FullBytes() + img.inboxBytes()
}

// Rank is one simulated MPI process.
type Rank struct {
	id int
	// clock, kernel and vt are held by value: three small per-rank
	// objects that would otherwise each be a heap allocation. The zero
	// clock reads time 0.
	clock  vtime.Clock
	mem    *memsim.AddressSpace
	kernel kernelsim.Kernel
	script scenario.Program
	pc     int
	// marked is the pc up to which the state markers are in mem: the ops
	// in [marked, pc) completed, and flushMarkers writes theirs on the
	// next read of memory.
	marked int
	state  State

	// vt is the handle-virtualisation table (paper §3.3), priced as the
	// implementation the job selected. comms holds the virtual
	// communicator handle per slot (slot 0 = MPI_COMM_WORLD, later slots
	// minted by comm-splits in execution order) with commIDs carrying the
	// coordinator's global communicator id for each slot; dtype is the
	// datatype handle registered at init. Every MPI call translates its
	// handles through the table. pending is the FIFO of not-yet-waited
	// request handles (part of the checkpoint image).
	vt      virtid.Table
	comms   []virtid.VID
	commIDs []int
	dtype   virtid.VID
	pending []virtid.VID

	// inbox holds messages that the checkpoint drain phase buffered at
	// this rank before the application posted the matching receive.
	// Receives consume the inbox (per-sender FIFO) before the network.
	inbox []netsim.Message
	// peers holds the rank's PeerCounts, one per peer it has sent to or
	// received from; a restore over the rank (FromImage) keeps the table.
	// It is a pointer so the Rank stays within its size class.
	peers *CountTable

	// blockedPeer is the source rank of the receive this rank is blocked
	// on, meaningful only while state == BlockedRecv.
	blockedPeer int

	stats Stats
	// shared is the record the last capture or restore pointed its image
	// at; a capture while stats and peers still equal it shares it again.
	shared *SavedStats
	// ckptOverhead accumulates virtual time spent on checkpoint/restart
	// activity (signal delivery, draining, image write/read, lower-half
	// rebuild). It is deliberately NOT part of the checkpoint image and
	// not charged to the application clock: MANA runs checkpointing in a
	// helper thread, and keeping it separate lets tests prove that a
	// checkpointed-and-restarted run reaches bit-identical application
	// virtual times to an uncheckpointed one.
	ckptOverhead vtime.Duration
}

const stateRegionSize = 64 * 1024

// The state markers occupy markerSlots 8-byte slots of app.state, op pc's
// in slot pc mod markerSlots, slotsPerPage of them to a memsim page.
const (
	markerSlots  = (stateRegionSize - 8) / 8
	slotsPerPage = memsim.PageSize / 8
)

// Real handle values the live lower half hands out, shaped like MPICH's
// predefined-handle encodings. In a real MANA run these change on every
// restart (the rebuilt lower half mints fresh ones, which is the whole
// reason the table exists); the simulator keeps them stable so images
// stay deterministic, and models only the translation work.
const (
	realCommWorld    virtid.Real = 0x44000000
	realDatatypeByte virtid.Real = 0x4c00010d
	// realRequestBase offsets a request's virtual id into its simulated
	// real handle, keeping replayed registrations bit-identical.
	realRequestBase virtid.Real = 0x98000000
	// RealCommBase offsets a split communicator's global id into its
	// simulated real handle. The coordinator passes RealCommBase+id to
	// FinishCommSplit so replayed splits re-mint bit-identical mappings.
	RealCommBase virtid.Real = 0x44000100
)

// Build returns rank id of a job, built whole as MANA brings a process
// up: a split-process address space, a handle-virtualisation table the
// kernel model prices, and the rank's program. It is given what
// FromImage is given — the job's kernel model (copied, so one serves
// every rank), its mapping table and the heap growths the program makes
// (Program.Sbrks) — so its heap shares its siblings' descriptors and its
// region table has room for every sbrk; a nil table and no sbrks build a
// rank outside any job. The program and the memory map (splitProcess)
// are shared with the other ranks and never written: the rank reads its
// ops through Op.Scalars with its own id, and the job's region table in
// place until it first maps, writes, captures or restores. The world
// communicator and the workload's datatype are registered in the table
// as MANA wraps MPI_Init: the application only ever sees their virtual
// ids. counts, an empty table, becomes the rank's own.
func Build(id int, kernel *kernelsim.Kernel, script scenario.Program, maps *memsim.Mappings, sbrks int, counts *CountTable) *Rank {
	counts.list = counts.room[:0]
	r := &Rank{
		id:     id,
		mem:    splitProcess.NewSpace(maps, sbrks),
		kernel: *kernel,
		script: script,
		peers:  counts,
	}
	r.comms = []virtid.VID{r.vt.Register(virtid.Comm, realCommWorld)}
	r.commIDs = []int{0}
	r.dtype = r.vt.Register(virtid.Datatype, realDatatypeByte)
	return r
}

// splitProcess is the memory map of MANA's split process (§2.1), the
// same in every rank: the upper half models the application, its libc and
// its link-time MPI library; the lower half models the ephemeral program
// — the bootstrap loader, the active MPI and network libraries and their
// driver mappings — that restart rebuilds from scratch. stateRegion is
// the address of the upper-half data region workload steps write to, so
// that memory contents — and therefore snapshot fingerprints — evolve
// over the run. Both are built once, before main starts, and only read
// afterwards: a rank's space shares the layout's region table until the
// rank first changes its map, so a rank that never does costs no region
// state of its own.
var splitProcess, stateRegion = func() (*memsim.Layout, uint64) {
	m := memsim.NewAddressSpace()
	m.Mmap("app.text", memsim.UpperHalf, memsim.KindText, 2<<20)
	m.Mmap("app.data", memsim.UpperHalf, memsim.KindData, 512<<10)
	m.Mmap("libc.text", memsim.UpperHalf, memsim.KindText, 1800<<10)
	m.Mmap("libmpi.text(link)", memsim.UpperHalf, memsim.KindText, 4<<20)
	m.Mmap("[stack]", memsim.UpperHalf, memsim.KindStack, 256<<10)
	m.Mmap("[environ]", memsim.UpperHalf, memsim.KindEnviron, 4<<10)
	state := m.MmapZero("app.state", memsim.UpperHalf, memsim.KindData, stateRegionSize)

	m.Mmap("bootstrap.text", memsim.LowerHalf, memsim.KindText, 128<<10)
	m.Mmap("libmpi.so(active)", memsim.LowerHalf, memsim.KindText, 4<<20)
	m.Mmap("libfabric.so", memsim.LowerHalf, memsim.KindText, 1<<20)
	m.Mmap("nic.pinned", memsim.LowerHalf, memsim.KindPinned, 8<<20)
	m.Mmap("driver.shm", memsim.LowerHalf, memsim.KindSharedMem, 2<<20)
	return m.Layout(), state.Addr
}()

// ID returns the rank's MPI rank number.
func (r *Rank) ID() int { return r.id }

// Clock returns the rank's virtual clock.
func (r *Rank) Clock() *vtime.Clock { return &r.clock }

// Mem returns the rank's simulated address space, with the state markers
// of every op completed so far written into it. It is the way to read
// rank memory outside CaptureImage, MemFingerprint and BytesOf, which
// account for the owed markers themselves: call it each time, and never
// keep the pointer across Execute, Wake or a Finish call — that space
// lacks the markers of the progress made since. Like every
// per-rank call it belongs to the goroutine that drives the rank.
func (r *Rank) Mem() *memsim.AddressSpace {
	r.flushMarkers()
	return r.mem
}

// BytesOf returns the total size of the regions of one half of the
// rank's address space. Sizes do not depend on the state markers, so it
// writes none of those owed (unlike Mem).
func (r *Rank) BytesOf(half memsim.Half) uint64 { return r.mem.BytesOf(half) }

// flushMarkers writes the state marker of every op in [marked, pc) that
// leaves one, a page-run at a time (owedRuns). For each run memsim hands
// out once the span from its first marker to its last (WriteSpan), and
// only the markers of marking ops are stored there: the slots of the
// other ops keep their bytes. Runs go in pc order and so do the markers
// inside one, so a later pc overwrites an earlier one at the same slot
// just as eager writes would; only pages that get a marker are touched,
// so the dirty set is the eager one; and a page's buffer is grown once,
// straight to the length its furthest marker needs, instead of a size
// class at a time.
func (r *Rank) flushMarkers() {
	for first, last := range r.owedRuns() {
		span, err := r.mem.WriteSpan(stateRegion, uint64(first%markerSlots)*8, uint64(last-first+1)*8)
		if err != nil {
			panic(fmt.Sprintf("rank %d: state marker write: %v", r.id, err))
		}
		r.putMarkers(span, first, last)
	}
	r.marked = r.pc
}

// owedRuns yields the page-runs of [marked, pc) that hold a marker, as
// the pcs of their first and last marker, in pc order. A page-run is a
// stretch of consecutive pcs whose marker slots share a page of
// app.state, cut where the slots wrap at markerSlots, so the slots of
// [first, last] are contiguous, from first%markerSlots on. It is the one
// definition of which markers are owed and where they land, for the
// flush and for MemFingerprint alike.
func (r *Rank) owedRuns() iter.Seq2[int, int] {
	return func(yield func(first, last int) bool) {
		for from := r.marked; from < r.pc; {
			slot := from % markerSlots
			end := min(r.pc, from+min(slotsPerPage-slot%slotsPerPage, markerSlots-slot))
			first, last := from, end-1
			from = end
			for first <= last && !marksState(r.script[first].Kind) {
				first++
			}
			for last > first && !marksState(r.script[last].Kind) {
				last--
			}
			if first <= last && !yield(first, last) {
				return
			}
		}
	}
}

// putMarkers stores the markers of the marking ops in [first, last], one
// owed run, into span, which holds their slots.
func (r *Rank) putMarkers(span []byte, first, last int) {
	for pc := first; pc <= last; pc++ {
		if marksState(r.script[pc].Kind) {
			binary.LittleEndian.PutUint64(span[(pc-first)*8:], uint64(pc)+1)
		}
	}
}

// MemFingerprint returns Mem().Fingerprint() without writing the owed
// markers: they are laid, in pc order, into a copy of app.state's prefix
// up to the furthest owed slot, and memsim hashes the space as if that
// prefix had been written (FingerprintWith); with nothing owed the
// prefix is empty, which is no write. The owed range and the rank's
// pages are left as they were. *scratch holds the copy; it is the
// caller's, grown as needed and reused across calls.
func (r *Rank) MemFingerprint(scratch *[]byte) uint64 {
	n := 0
	for _, last := range r.owedRuns() {
		n = max(n, (last%markerSlots+1)*8)
	}
	buf := slices.Grow((*scratch)[:0], n)[:n]
	*scratch = buf
	if err := r.mem.ReadInto(stateRegion, 0, buf); err != nil {
		panic(fmt.Sprintf("rank %d: state marker read: %v", r.id, err))
	}
	for first, last := range r.owedRuns() {
		r.putMarkers(buf[first%markerSlots*8:], first, last)
	}
	fp, err := r.mem.FingerprintWith(stateRegion, buf)
	if err != nil {
		panic(fmt.Sprintf("rank %d: state marker fingerprint: %v", r.id, err))
	}
	return fp
}

// Kernel returns the rank's kernel cost model.
func (r *Rank) Kernel() *kernelsim.Kernel { return &r.kernel }

// Virtid returns the rank's handle-virtualisation table. Tests use it to
// inspect table state and to stage dead-timeline handles.
func (r *Rank) Virtid() *virtid.Table { return &r.vt }

// CommCount returns the number of communicator slots the rank holds
// (1 for a rank that has performed no comm-splits: MPI_COMM_WORLD).
func (r *Rank) CommCount() int { return len(r.comms) }

// CommID returns the coordinator's global communicator id for one of the
// rank's communicator slots. The coordinator uses it to resolve which
// rendezvous a collective arrival belongs to.
func (r *Rank) CommID(slot int) int {
	if slot < 0 || slot >= len(r.commIDs) {
		panic(fmt.Sprintf("rank %d: communicator slot %d out of range (have %d)", r.id, slot, len(r.commIDs)))
	}
	return r.commIDs[slot]
}

// commHandle returns the virtual handle for a communicator slot. A slot
// the rank never minted is a virtualisation bug in the script, exactly
// like a stale handle, and is fatal.
func (r *Rank) commHandle(slot int) virtid.VID {
	if slot < 0 || slot >= len(r.comms) {
		panic(fmt.Sprintf("rank %d: communicator slot %d out of range (have %d)", r.id, slot, len(r.comms)))
	}
	return r.comms[slot]
}

// State returns the scheduler-visible execution state.
func (r *Rank) State() State {
	if r.state == Running && r.pc >= len(r.script) {
		return Done
	}
	return r.state
}

// PC returns the script program counter.
func (r *Rank) PC() int { return r.pc }

// Stats returns a copy of the rank's accounting.
func (r *Rank) Stats() Stats { return r.stats }

// Counts returns the rank's per-peer counts, sorted by peer. The slice is
// the rank's own: read it before the rank's next send or receive, and
// never write it.
func (r *Rank) Counts() []PeerCount { return r.peers.list }

// A CountTable is where a rank keeps its PeerCounts, sorted by peer, with
// room inline for the two peers of a ring. A job makes its ranks' tables
// in one allocation and hands Build one each.
type CountTable struct {
	list []PeerCount
	room [2]PeerCount
}

// count returns peer's entry in the rank's counts, adding it on first
// use: a binary search, since a master or an all-to-all rank talks to
// every rank of the job.
func (r *Rank) count(peer int) *PeerCount {
	t := r.peers
	lo, hi := 0, len(t.list)
	for lo < hi {
		if mid := (lo + hi) / 2; t.list[mid].Peer < peer {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(t.list) || t.list[lo].Peer != peer {
		t.list = slices.Insert(t.list, lo, PeerCount{Peer: peer})
	}
	return &t.list[lo]
}

// CkptOverhead returns virtual time spent on checkpoint/restart activity,
// which is accounted separately from the application clock.
func (r *Rank) CkptOverhead() vtime.Duration { return r.ckptOverhead }

// ChargeCkptOverhead adds checkpoint-side cost to the rank's overhead
// account. The coordinator uses this for signal delivery, drain probes,
// image I/O and restart reinitialisation.
func (r *Rank) ChargeCkptOverhead(d vtime.Duration) {
	if d > 0 {
		r.ckptOverhead += d
	}
}

// AtCollective reports whether the rank's next operation is a
// collective and, if so, the communicator slot it runs over — what the
// drain planner asks of every ready rank. Neither depends on the rank,
// so nothing is resolved. The script must not be exhausted.
func (r *Rank) AtCollective() (slot int, ok bool) {
	switch op := &r.script[r.pc]; op.Kind {
	case scenario.OpBarrier, scenario.OpAllreduce, scenario.OpCommSplit:
		return op.Comm, true
	}
	return 0, false
}

// InboxLen returns the number of drain-buffered messages awaiting the
// application.
func (r *Rank) InboxLen() int { return len(r.inbox) }

// PendingRequests returns the virtual ids of nonblocking operations
// posted but not yet retired by a wait, oldest first.
func (r *Rank) PendingRequests() []virtid.VID {
	return append([]virtid.VID(nil), r.pending...)
}

// translate resolves one virtual handle through the table, exactly as
// the MANA wrapper does on the way into the lower half. A miss means the
// upper half holds a handle the table does not know — a virtualisation
// bug (or a stale handle from an abandoned timeline) — and is fatal.
func (r *Rank) translate(k virtid.Kind, v virtid.VID) virtid.Real {
	real, ok := r.vt.Lookup(k, v)
	if !ok {
		panic(fmt.Sprintf("rank %d: virtual %v handle %d does not resolve", r.id, k, v))
	}
	return real
}

// postRequest registers the request handle a nonblocking operation
// allocates at post time. The simulated real handle is a deterministic
// function of the virtual id the table mints — its request allocation
// counter, which the image's table snapshot restores — so that restart
// replay re-creates bit-identical mappings.
func (r *Rank) postRequest() virtid.VID {
	next := r.vt.Minted(virtid.Request) + 1
	return r.vt.Register(virtid.Request, realRequestBase+virtid.Real(next))
}

// completeRequest models the wait half: the request handle is translated
// once more (the wait call passes it down) and then retired from the
// table — after this, the virtual id never resolves again.
func (r *Rank) completeRequest(v virtid.VID) {
	r.translate(virtid.Request, v)
	if !r.vt.Deregister(virtid.Request, v) {
		panic(fmt.Sprintf("rank %d: request handle %d retired twice", r.id, v))
	}
}

// chargeMPICall advances the clock by MANA's per-call overhead and
// records it: the FS-register round trip, the per-kind virtualisation
// lookups the call performed, any table writes (request registration and
// retirement on the nonblocking paths, priced by the selected
// implementation's write cost), and one metadata record when the call
// has drain-relevant effects (§3.3).
func (r *Rank) chargeMPICall(lookups virtid.LookupCounts, writes uint64, recorded bool) {
	d := r.kernel.MANAPerCallOverhead(lookups, recorded)
	writeTime := vtime.Duration(writes) * r.kernel.HandleWriteCost()
	d += writeTime
	r.clock.Advance(d)
	r.stats.MPICalls++
	r.stats.ManaOverhead += d
	r.stats.CommLookups += lookups.Comm
	r.stats.DatatypeLookups += lookups.Datatype
	r.stats.RequestLookups += lookups.Request
	r.stats.HandleLookups += lookups.Total()
	r.stats.HandleWrites += writes
	r.stats.LookupTime += r.kernel.VirtualizationLookupOverhead(lookups)
	r.stats.WriteTime += writeTime
}

// compute executes a compute op: advance the clock by the phase
// duration. Its touch of application memory, the state marker, is
// written on the next read of memory (flushMarkers).
func (r *Rank) compute(dur vtime.Duration) {
	r.clock.Advance(dur)
	r.stats.ComputeTime += dur
	r.pc++
}

// send executes a blocking send op: translate the communicator and
// datatype handles (a blocking send surfaces no request to the
// application, so none is virtualised), charge the MANA call overhead
// (one lookup per translated handle, metadata record for the drain
// counters), inject the message with a piggybacked timestamp, and occupy
// the sender for the serialisation time.
func (r *Rank) send(net *netsim.Network, op *scenario.Op, peer int, bytes uint64) {
	r.translate(virtid.Comm, r.commHandle(op.Comm))
	r.translate(virtid.Datatype, r.dtype)
	r.chargeMPICall(virtid.LookupCounts{Comm: 1, Datatype: 1}, 0, true)
	r.inject(net, op.Tag, peer, bytes)
}

// inject puts the message on the wire with a piggybacked timestamp,
// counts it and stamps its Seq with the count, and occupies the sender
// for the serialisation time. The network owns the message from here on;
// the caller queues its delivery (Transition.SentTo).
func (r *Rank) inject(net *netsim.Network, tag, peer int, bytes uint64) {
	stamp := vtime.StampFrom(r.id, &r.clock)
	m, busy := net.Send(r.id, peer, tag, bytes, stamp)
	c := r.count(peer)
	c.Sent++
	m.Seq = c.Sent
	r.clock.Advance(busy)
	r.stats.MsgsSent++
	r.stats.BytesSent += bytes
	r.pc++
}

// isend executes a nonblocking send: like send, but the call also
// registers a request handle that stays live — in the table and in the
// pending FIFO, both part of the checkpoint image — until the matching
// wait retires it. The message itself is on the wire immediately; only
// its completion handle is outstanding.
func (r *Rank) isend(net *netsim.Network, op *scenario.Op, peer int, bytes uint64) {
	r.translate(virtid.Comm, r.commHandle(op.Comm))
	r.translate(virtid.Datatype, r.dtype)
	req := r.postRequest()
	r.pending = append(r.pending, req)
	// The post is a table write (the request is born here), not a lookup;
	// its first translation happens at the wait.
	r.chargeMPICall(virtid.LookupCounts{Comm: 1, Datatype: 1}, 1, true)
	r.inject(net, op.Tag, peer, bytes)
}

// wait completes the oldest outstanding nonblocking operation: the
// wait call passes the request handle down (one translation) and retires
// it from the table — after this the virtual id never resolves again.
func (r *Rank) wait() {
	if len(r.pending) == 0 {
		panic(fmt.Sprintf("rank %d: wait with no outstanding request", r.id))
	}
	req := r.pending[0]
	r.pending = r.pending[1:]
	r.completeRequest(req)
	r.chargeMPICall(virtid.LookupCounts{Request: 1}, 1, false)
	r.pc++
}

// tryRecvFrom attempts to execute a recv op from peer at virtual time
// by. Drain-buffered inbox messages from the requested peer are consumed
// first, with no arrival gate — they were already received off the
// network by the checkpoint helper and live in the rank's own buffer.
// Otherwise the network queue is consulted, which only yields messages
// that have arrived by the given time: a rank can never observe a
// message before its wire latency has elapsed. It returns false,
// leaving the pc unchanged, if no matching message is visible yet — the
// message's delivery event wakes the rank later.
func (r *Rank) tryRecvFrom(net *netsim.Network, peer int, by vtime.Time) bool {
	for i := range r.inbox {
		if r.inbox[i].Src == peer {
			m := r.inbox[i]
			r.inbox = append(r.inbox[:i:i], r.inbox[i+1:]...)
			r.completeRecv(&m)
			return true
		}
	}
	m := net.Recv(r.id, peer, by)
	if m == nil {
		return false
	}
	r.count(peer).Received++
	r.completeRecv(m)
	return true
}

func (r *Rank) completeRecv(m *netsim.Message) {
	// Comm (like Kind) is never rank-dependent: read in place.
	r.translate(virtid.Comm, r.commHandle(r.script[r.pc].Comm))
	r.translate(virtid.Datatype, r.dtype)
	r.chargeMPICall(virtid.LookupCounts{Comm: 1, Datatype: 1}, 0, true)
	// Piggyback synchronisation: the receiver cannot observe the message
	// before it arrives.
	r.clock.Observe(vtime.Stamp{Rank: m.Src, When: m.Arrive})
	r.stats.MsgsRecvd++
	r.stats.BytesRecvd += m.Bytes
	r.pc++
}

// TransitionKind classifies the outcome of one Execute call.
type TransitionKind int

const (
	// Advanced means the operation completed and the rank's clock moved;
	// if the script is not exhausted the rank is immediately ready again.
	Advanced TransitionKind = iota
	// BlockedOnRecv means the rank posted a receive with no matching
	// message; it must not be rescheduled until a delivery wakes it.
	BlockedOnRecv
	// JoinedCollective means the rank entered the collective
	// rendezvous and is waiting for the remaining participants.
	JoinedCollective
)

// Transition reports the effect of one Execute call, carrying exactly
// what the event loop needs to schedule follow-up events.
type Transition struct {
	Kind TransitionKind
	// Stamp is the arrival stamp for JoinedCollective.
	Stamp vtime.Stamp
	// Coll is the collective a JoinedCollective entered, resolved for
	// this rank: its Bytes and Color are the rank's own values, not the
	// shared program's offsets or means, and the coordinator copies them
	// into the forming rendezvous as the rank arrives.
	Coll Collective
	// SentTo is the receiver plus one of the message the operation put on
	// the wire (a send or an isend), 0 when it sent none. The message
	// arrives one wire latency after the sender's clock as Execute leaves
	// it (netsim.Send): the caller queues its delivery then.
	SentTo int
}

// Collective is one collective call as a rank made it: its kind, the
// communicator slot it runs over, its payload and (for a comm-split) the
// rank's colour.
type Collective struct {
	Kind  scenario.OpKind
	Comm  int
	Bytes uint64
	Color int
}

// NextReady reports when the rank can next execute an operation. It
// returns false for a rank that is done, blocked on a receive or waiting
// in a collective: such ranks have no ready time and are woken by events
// instead of being polled.
func (r *Rank) NextReady() (vtime.Time, bool) {
	if r.State() != Running {
		return 0, false
	}
	return r.clock.Now(), true
}

// NextLocal reports whether the rank's next operation is local — one
// that reads nothing another rank writes, so running it ahead of events
// at earlier virtual times changes nothing any rank observes: a compute,
// a wait, a heap growth, or a send or isend (a message stays invisible
// to its receiver until it arrives). For a send or isend it also returns
// the destination, so the caller can check the pair's ring has room. It
// is false for a receive or a collective, for the script's last
// operation (finishing lowers collective participation bars), and for a
// rank that is not running.
func (r *Rank) NextLocal() (peer int, send, ok bool) {
	if r.state != Running || r.pc+1 >= len(r.script) {
		return 0, false, false
	}
	switch op := &r.script[r.pc]; op.Kind {
	case scenario.OpCompute, scenario.OpWait, scenario.OpSbrk:
		return 0, false, true
	case scenario.OpSend, scenario.OpIsend:
		return op.PeerOf(r.id), true, true
	}
	return 0, false, false
}

// marksState reports whether completing an op of kind k leaves a state
// marker in memory (flushMarkers): compute, receive and the three
// collectives do; sends, waits and heap growth do not.
func marksState(k scenario.OpKind) bool {
	switch k {
	case scenario.OpCompute, scenario.OpRecv, scenario.OpBarrier, scenario.OpAllreduce, scenario.OpCommSplit:
		return true
	}
	return false
}

// Execute runs the rank's next scripted operation atomically and returns
// the resulting transition. Callers must only invoke it when NextReady
// reports true.
func (r *Rank) Execute(net *netsim.Network) (tr Transition) {
	// Kind, Tag and Comm are read in place from the shared program
	// (callers checked the rank is not done, so pc is in range); only the
	// rank-dependent scalars are resolved. Advanced is the zero Kind.
	op := &r.script[r.pc]
	v := op.Scalars(r.id)
	switch op.Kind {
	case scenario.OpCompute:
		r.compute(v.Dur)
	case scenario.OpSend:
		r.send(net, op, v.Peer, v.Bytes)
		tr.SentTo = v.Peer + 1
	case scenario.OpIsend:
		r.isend(net, op, v.Peer, v.Bytes)
		tr.SentTo = v.Peer + 1
	case scenario.OpWait:
		r.wait()
	case scenario.OpRecv:
		if !r.tryRecvFrom(net, v.Peer, r.clock.Now()) {
			r.state = BlockedRecv
			r.blockedPeer = v.Peer
			tr.Kind = BlockedOnRecv
		}
	case scenario.OpBarrier, scenario.OpAllreduce, scenario.OpCommSplit:
		tr.Kind = JoinedCollective
		tr.Stamp = r.arriveAt(op)
		tr.Coll = Collective{Kind: op.Kind, Comm: op.Comm, Bytes: v.Bytes, Color: v.Color}
	case scenario.OpSbrk:
		r.sbrk(v.Bytes)
	default:
		panic(fmt.Sprintf("rank %d: Execute of unknown op kind %v", r.id, op.Kind))
	}
	return tr
}

// BlockedOn returns the peer of the receive the rank is blocked on; ok is
// false unless the rank is in BlockedRecv.
func (r *Rank) BlockedOn() (peer int, ok bool) {
	if r.state != BlockedRecv {
		return 0, false
	}
	return r.blockedPeer, true
}

// Wake retries the blocked receive after a delivery (or a checkpoint
// drain) may have made a matching message available at virtual time at
// — for a delivery event, the message's arrival time. It returns true
// if the receive completed, leaving the rank Running (or Done) and
// ready to be rescheduled; false if the rank was not blocked or still
// has no matching message.
func (r *Rank) Wake(net *netsim.Network, at vtime.Time) bool {
	if r.state != BlockedRecv {
		return false
	}
	r.state = Running
	// The peer was resolved when the receive blocked.
	if r.tryRecvFrom(net, r.blockedPeer, at) {
		return true
	}
	r.state = BlockedRecv
	return false
}

// arriveAt executes the rank-local half of a collective: translate the
// handles the call passes (every collective names the communicator it
// runs over — world or a sub-communicator slot; a payload-carrying one
// also names the datatype), charge the call overhead, mark the rank as
// waiting, and return the piggyback stamp the coordinator gathers to
// compute the completion time.
func (r *Rank) arriveAt(op *scenario.Op) vtime.Stamp {
	lookups := virtid.LookupCounts{Comm: 1}
	r.translate(virtid.Comm, r.commHandle(op.Comm))
	if op.Kind == scenario.OpAllreduce {
		r.translate(virtid.Datatype, r.dtype)
		lookups.Datatype = 1
	}
	r.chargeMPICall(lookups, 0, true)
	r.state = InCollective
	return vtime.StampFrom(r.id, &r.clock)
}

// FinishCollective completes the collective the rank is waiting in: the
// clock advances to the globally computed completion time.
func (r *Rank) FinishCollective(completion vtime.Time) {
	if r.state != InCollective {
		panic(fmt.Sprintf("rank %d: FinishCollective in state %v", r.id, r.state))
	}
	r.clock.AdvanceTo(completion)
	r.state = Running
	r.stats.Collectives++
	r.pc++
}

// FinishCommSplit completes the comm-split the rank is waiting in: the
// clock advances to the globally computed completion time, and the new
// sub-communicator — global id commID, live lower-half handle real — is
// registered in the virtualisation table and appended to the rank's slot
// table. The registration is a table write charged at the selected
// implementation's write cost; because the allocation counters are part
// of the checkpoint image, a replayed split after restart re-mints a
// bit-identical virtual handle.
func (r *Rank) FinishCommSplit(completion vtime.Time, commID int, real virtid.Real) {
	if r.state != InCollective {
		panic(fmt.Sprintf("rank %d: FinishCommSplit in state %v", r.id, r.state))
	}
	if kind := r.script[r.pc].Kind; kind != scenario.OpCommSplit {
		panic(fmt.Sprintf("rank %d: FinishCommSplit while waiting in %v", r.id, kind))
	}
	r.clock.AdvanceTo(completion)
	v := r.vt.Register(virtid.Comm, real)
	r.comms = append(r.comms, v)
	r.commIDs = append(r.commIDs, commID)
	writeTime := r.kernel.HandleWriteCost()
	r.clock.Advance(writeTime)
	r.stats.HandleWrites++
	r.stats.WriteTime += writeTime
	r.stats.ManaOverhead += writeTime
	r.state = Running
	r.stats.CommSplits++
	r.pc++
}

// sbrk executes a heap-growth op through the simulated address space,
// charging the syscall cost.
func (r *Rank) sbrk(bytes uint64) {
	r.clock.Advance(r.kernel.SyscallCost())
	r.mem.Sbrk(bytes)
	r.pc++
}

// BufferDrained appends a message delivered by the checkpoint drain phase
// to the rank's inbox and counts it received from its sender; the
// application's receive that later consumes it counts nothing more. The
// coordinator charges the buffering cost separately via
// ChargeCkptOverhead.
func (r *Rank) BufferDrained(m netsim.Message) {
	r.inbox = append(r.inbox, m)
	r.count(m.Src).Received++
}

// CaptureImage produces the rank's checkpoint image: CaptureInto a fresh
// image, with nothing to share slot tables with.
func (r *Rank) CaptureImage(incremental bool) (img Image) {
	r.CaptureInto(&img, incremental, nil)
	return img
}

// CaptureInto captures the rank's checkpoint image into *dst and commits
// the memory generation it captures (freezing the captured pages,
// clearing dirty bitmaps). With incremental set — and a previously
// committed generation to delta against — the image carries only the
// pages dirtied since the last checkpoint; the first capture after
// construction or restart always falls back to a self-contained full
// image. An image's memory payload references frozen pages only — the
// live space copies a page before writing to it again.
//
// Every field of *dst is overwritten, so dst may be a slot still holding
// an older link's image. The image points at shared payloads (Image):
// memsim's snapshot, the table's memoised snapshot, and the Stats the
// rank's last capture or restore pointed at while the counters still
// equal them. The rest of the small state is copied out of the rank; an
// empty inbox or request FIFO allocates nothing, and a request FIFO or
// communicator slot table equal to prev's (the image captured just before
// in the same link; nil for none) is shared with prev instead — images
// are read-only.
func (r *Rank) CaptureInto(dst *Image, incremental bool, prev *Image) {
	if r.state == InCollective {
		panic(fmt.Sprintf("rank %d: checkpoint while inside a collective", r.id))
	}
	r.flushMarkers()
	var prevReqs, prevComms []virtid.VID
	var prevIDs []int
	if prev != nil {
		prevReqs, prevComms, prevIDs = prev.PendingReqs, prev.Comms, prev.CommIDs
	}
	dst.RankID, dst.PC, dst.Clock = r.id, r.pc, r.clock.Now()
	dst.Seq, dst.Base = 0, 0
	if incremental && r.mem.Generation() > 0 {
		dst.Full, dst.Mem, dst.Delta = false, nil, r.mem.CommitUpperHalfDelta()
	} else {
		dst.Full, dst.Mem, dst.Delta = true, r.mem.CommitUpperHalf(), memsim.Delta{}
	}
	dst.Inbox = slices.Clone(r.inbox)
	dst.Virt = r.vt.Snapshot()
	dst.PendingReqs = shareOrClone(r.pending, prevReqs)
	dst.Comms = shareOrClone(r.comms, prevComms)
	dst.CommIDs = shareOrClone(r.commIDs, prevIDs)
	if peers := r.Counts(); r.shared == nil || r.shared.Stats != r.stats || !slices.Equal(r.shared.Peers, peers) {
		r.shared = &SavedStats{Stats: r.stats, hash: r.stats.contentHash()}
		r.shared.Peers = append(r.shared.room[:0], peers...)
	}
	dst.Stats = r.shared
	dst.Complete = true
	dst.WrittenBytes = dst.Bytes()
	dst.StoredBytes = dst.WrittenBytes
}

// shareOrClone returns prev when it holds what s holds, else a copy of s.
func shareOrClone[S ~[]E, E comparable](s, prev S) S {
	if len(s) > 0 && slices.Equal(s, prev) {
		return prev
	}
	return slices.Clone(s)
}

// Overlay materialises an incremental image onto its base: the returned
// image is full, bit-identical to the full image that would have been
// captured at the delta's commit point. A full img passes through
// untouched, so a restart loop can fold an arbitrary base+delta chain.
func Overlay(base, img Image) Image { return img.OverlayOn(&base) }

// OverlayOn is Overlay(*base, *img) on images in place: the coordinator's
// stages hand the Image record around by pointer. The result points at
// img's payloads and at a snapshot that shares base's pages — base's own
// snapshot when the delta changes nothing (memsim.ApplyDelta).
func (img *Image) OverlayOn(base *Image) Image {
	if img.Full {
		return *img
	}
	if base.RankID != img.RankID {
		panic(fmt.Sprintf("rank: overlay of rank %d delta onto rank %d base", img.RankID, base.RankID))
	}
	if !base.Full {
		panic(fmt.Sprintf("rank %d: overlay base (seq %d) is itself a delta", base.RankID, base.Seq))
	}
	if img.Base != base.Seq {
		panic(fmt.Sprintf("rank %d: delta seq %d applies to base seq %d, got base seq %d",
			img.RankID, img.Seq, img.Base, base.Seq))
	}
	out := *img
	out.Full = true
	out.Base = 0
	out.Mem = memsim.ApplyDelta(base.Mem, img.Delta)
	out.Delta = memsim.Delta{}
	out.WrittenBytes = out.Bytes()
	out.StoredBytes = out.WrittenBytes
	return out
}

// VerifyImage checks a committed image's integrity the way a restart
// would before trusting it: a torn image (Complete == false) is rejected
// outright; otherwise every carried page or region is rehashed with the
// same FNV digests recorded at capture time. It returns the number of
// pages rehashed — the coordinator charges restart verify cost per page —
// and an error naming what failed.
func VerifyImage(img Image) (pages int, err error) { return img.Verify() }

// Verify is VerifyImage on the image in place.
func (img *Image) Verify() (pages int, err error) {
	if !img.Complete {
		return 0, fmt.Errorf("rank %d: image for checkpoint #%d is torn: %d of %d bytes written",
			img.RankID, img.Seq, img.WrittenBytes, img.Bytes())
	}
	if img.Full {
		pages, err = img.Mem.Verify()
	} else {
		pages, err = img.Delta.Verify()
	}
	if err != nil {
		return pages, fmt.Errorf("rank %d: image for checkpoint #%d is corrupt: %w", img.RankID, img.Seq, err)
	}
	return pages, nil
}

// FromImage makes *dst the rank a restart brings up from a checkpoint
// image, modelling MANA's restart path: the dead process is gone, a fresh
// one bootstraps splitProcess's lower half, maps the saved upper-half
// regions over it and resumes the application state. It is given what a
// new rank of the job is given (Build) — its kernel cost model, its
// program, the job's mapping table and the number of sbrks the program
// makes — so the replayed timeline maps at the same addresses as the
// first, shares its heap descriptors, and grows into a region table that
// has room for every sbrk after the image's pc.
// The restored space shares the image's pages rather than copying them;
// the image is only read. Every field of *dst is overwritten, so dst may
// be the storage of the dead rank: nothing of it survives, its checkpoint
// overhead included, which the caller carries over since it describes
// the run, not the image. Only its count table's storage is kept, filled
// with the image's counts.
func FromImage(dst *Rank, img *Image, kernel *kernelsim.Kernel, script scenario.Program, maps *memsim.Mappings, sbrks int) {
	if !img.Full {
		panic(fmt.Sprintf("rank %d: restore from unmaterialised delta image (seq %d, base %d) — Overlay it first",
			img.RankID, img.Seq, img.Base))
	}
	peers := dst.peers
	if peers == nil {
		peers = new(CountTable)
	}
	peers.list = append(peers.list[:0], img.Stats.Peers...)
	*dst = Rank{
		id:     img.RankID,
		peers:  peers,
		mem:    splitProcess.Restored(img.Mem, maps, sbrks),
		kernel: *kernel,
		script: script,
		// The image's memory holds every marker up to its pc; those of
		// the abandoned timeline past it are never written.
		pc:     img.PC,
		marked: img.PC,
		// The small state is deep-copied; an empty FIFO or inbox
		// allocates nothing.
		comms:   slices.Clone(img.Comms),
		commIDs: slices.Clone(img.CommIDs),
		pending: slices.Clone(img.PendingReqs),
		inbox:   slices.Clone(img.Inbox),
		// The image's Stats become what the next capture shares while the
		// counters stay the same.
		stats:  img.Stats.Stats,
		shared: img.Stats,
	}
	dst.clock.Set(img.Clock)
	// The virtualisation table is rebuilt from the image, exactly as MANA
	// repopulates it after the fresh lower half comes up: virtual ids live
	// at checkpoint time resolve again, ids minted in the abandoned
	// timeline do not, and the restored allocation counters make replayed
	// registrations bit-identical. The datatype handle the application got
	// at init is the table's one datatype mapping.
	dst.vt.Restore(img.Virt)
	dst.dtype = img.Virt.Entries[virtid.Datatype][0].VID
}
