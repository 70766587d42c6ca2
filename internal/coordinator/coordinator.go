// Package coordinator implements MANA's checkpoint coordination protocol
// (paper §3.1–3.2) over the simulated rank runtime.
//
// The coordinator drives an event-driven virtual-time scheduler: every
// state transition in the job — a rank becoming ready to execute its next
// scripted operation, a point-to-point message arriving, a collective
// completing, a checkpoint trigger coming due, an injected failure — is
// an event on a deterministic queue ordered by (time, push order). Ranks
// that are blocked in a receive or waiting in a collective have no queued
// events and therefore consume zero scheduler work, which is what lets
// the simulator scale to thousands of mostly idle ranks.
//
// Events live on one vtime.EventQueue, popped one at a time in (time,
// push order) by the single goroutine that calls Run. A rank whose
// operation completes keeps running its next operations in the same
// visit while they are local and earlier than every queued trigger and
// fault (runAhead): nothing any rank observes
// changes, and each such operation is counted as the event it would
// have been. The paper's
// coordinator drives every rank through one protocol — intent, drain to
// quiescence, cut — and so does this loop: there is one scheduler, and
// a report depends only on the configuration, never on the host. Runs
// are parallel across a fleet (internal/fleet), not within one.
//
// Checkpoint requests are serviced with the paper's two-phase protocol:
//
//	Phase 1 (quiesce): broadcast checkpoint intent to every rank. Ranks
//	stop starting new operations at their next call boundary (no ready
//	events are dispatched past a pending request). If any rank is
//	inside a collective, all ranks keep executing until that collective
//	completes — a checkpoint never lands mid-collective. Then the
//	in-flight point-to-point messages are drained: the per-peer
//	send/receive counts the ranks keep are compared and every
//	outstanding message is received into the destination rank's buffer,
//	until the counts agree that the network is quiescent.
//
//	Phase 2 (commit): a per-rank pipeline — capture, compress, account,
//	write. Each rank captures its image (full on the first checkpoint and
//	on the Config.FullImageEvery cadence, otherwise an incremental delta
//	of the pages dirtied since the previous checkpoint, deduplicated
//	against the last committed generation) and is charged the capture's
//	page-table scan and per-page hashes, then the write of the bytes
//	carried, all to its checkpoint-overhead account. The generation store
//	(internal/ckptstore) prices that write — the contended parallel
//	filesystem where the §3.4 stragglers emerge, or burst-buffer staging —
//	and keeps the committed generations; the coordinator turns the drains
//	it queues into drain-done events.
//
// A Coordinator is a job holding one timeline: the ranks, the network,
// the event queue and the protocol state of one run from construction or
// from a restore point. Restart takes the store's newest verifiable
// restore point, charging each rank the verification the store reports,
// then builds the next timeline from it, as MANA restarts into a new
// process: each rank built whole from its image, a fresh lower half
// bootstrapped under it (rank.FromImage), an empty network, the event
// queue seeded from the restored state. Nothing is
// reset field by field; the dead timeline is dropped, and with it every
// event, rendezvous and drain it held. Injected faults are the
// coordinator's: it damages images at their write hops and poisons the
// link a crashed restart attempt was reading. Because checkpoint
// activity is accounted outside the application clocks, a restarted run
// reaches bit-identical virtual-time results to an uncheckpointed one —
// the property the determinism tests pin down.
package coordinator

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"mana/internal/ckptstore"
	"mana/internal/faultplan"
	"mana/internal/fnv1a"
	"mana/internal/kernelsim"
	"mana/internal/memsim"
	"mana/internal/netsim"
	"mana/internal/rank"
	"mana/internal/scenario"
	"mana/internal/storage"
	"mana/internal/virtid"
	"mana/internal/vtime"
)

// Trigger schedules one checkpoint request.
type Trigger struct {
	// At requests the checkpoint once virtual time reaches this point.
	At vtime.Time
	// MidCollective, when set, instead requests the checkpoint at the
	// first moment (not before At) at which a collective is partially
	// arrived — some but not all ranks inside it. This exercises the
	// protocol's deferral path deterministically.
	MidCollective bool
	// InFlight, when set, instead requests the checkpoint at the first
	// moment (not before At) at which point-to-point messages are in
	// flight — sent but not yet received — so the drain phase has real
	// work to do.
	InFlight bool
	// FormingColls, when positive, instead requests the checkpoint at
	// the first moment (not before At) at which at least this many
	// collectives are simultaneously in flight, so the drain planner has
	// a non-trivial dependency graph to sort.
	FormingColls int
}

// Config parameterises one simulated job.
type Config struct {
	// Ranks is the number of simulated MPI ranks.
	Ranks int
	// Personality selects the kernel cost model for every node.
	Personality kernelsim.Personality
	// Virtid selects the handle-virtualisation table implementation every
	// rank uses on its per-call hot path (and thereby the calibrated
	// per-lookup cost the kernel model charges).
	Virtid virtid.Impl
	// Net is the interconnect cost model.
	Net netsim.Params
	// Programs carries one op stream per rank (index = rank id), compiled
	// from a scenario spec (ranks of the same shape then share one
	// stream, which each resolves from its id) or — in tests — built
	// directly, one literal op list per rank, to stage precise protocol
	// situations.
	// New panics unless len(Programs) == Ranks.
	Programs []scenario.Program
	// Storage is the checkpoint I/O pipeline (internal/storage): the PFS,
	// optional burst-buffer staging and delta-page compression. BaseConfig
	// sets the direct contended default.
	Storage storage.Config
	// Incremental enables delta checkpoint images: after the first (full)
	// checkpoint, images carry only the pages dirtied since the previous
	// one, so commit cost tracks dirty bytes instead of address-space
	// size. Restart materialises the base+delta chain back into full
	// state, bit-identical to full-image checkpointing.
	Incremental bool
	// FullImageEvery bounds the restart chain when Incremental is set: a
	// self-contained full image is emitted every Nth checkpoint (1 = all
	// full, 0 = only the first; the chain then grows without bound).
	FullImageEvery int
	// Islands and Workers configure nothing: the scheduler is one serial
	// event loop. They stay because bench/traced.go:287 sets both on its
	// second traced pass, which is now a second serial run.
	Islands int
	Workers int
	// FailAtCheckpoint configures nothing: every failure is a fault in
	// Faults, the default scenario's crash included
	// (faultplan.DefaultCrash). It stays because bench/traced.go:259
	// clears it beside Faults on its bare pass.
	FailAtCheckpoint int
	// Seed is the seed the programs were compiled with; the coordinator
	// only prints it (the scheduler itself is deterministic).
	Seed uint64
	// Triggers are the scheduled checkpoint requests.
	Triggers []Trigger
	// Faults is the compiled fault plan: an ordered list of one-shot
	// injections at named protocol points (faultplan.Compile output).
	Faults []faultplan.Fault
	// RetainGenerations is how many full checkpoint generations are kept
	// on the simulated filesystem beyond the newest; restart falls back
	// through them when the newest links fail verification. BaseConfig
	// sets 2; zero retains only the newest generation (the legacy
	// behaviour).
	RetainGenerations int
	// MaxRestarts bounds the fleet engine's restart retry loop (failed
	// restart attempts included); the engine returns ErrRestartsExhausted
	// past it. Zero or negative means unbounded. BaseConfig sets 8.
	MaxRestarts int

	// Scratch configures nothing (see Scratch). It stays because
	// bench/traced.go:86 sets it.
	Scratch *Scratch
}

// BaseConfig returns the default cost-model parameters — bandwidths,
// network, retained generations — without compiling any programs. The
// fleet engine overlays ranks, programs, triggers and faults on top;
// DefaultConfig adds the default 8-rank workload for tests that want a
// complete runnable config.
func BaseConfig() Config {
	return Config{
		Ranks:             8,
		Personality:       kernelsim.Unpatched,
		Virtid:            virtid.ImplSharded,
		Net:               netsim.DefaultParams(),
		Storage:           storage.DefaultConfig(),
		FullImageEvery:    4,
		Seed:              42,
		RetainGenerations: 2,
		MaxRestarts:       8,
	}
}

// Outcome reports how a Run ended.
type Outcome int

const (
	// Completed means every rank exhausted its script.
	Completed Outcome = iota
	// Failed means the configured failure injection fired; the caller
	// should Restart and Run again.
	Failed
)

// String returns a human-readable outcome name.
func (o Outcome) String() string {
	switch o {
	case Completed:
		return "completed"
	case Failed:
		return "failed"
	default:
		return "unknown"
	}
}

// CheckpointRecord describes one committed checkpoint.
type CheckpointRecord struct {
	Seq           int
	RequestedAt   vtime.Time
	MidCollective bool
	// SafeAt is the virtual time (max rank clock) at which the safe
	// point was reached and draining began.
	SafeAt vtime.Time
	// DeferredFor is how much virtual application progress elapsed
	// between the request and the safe point (non-zero when the request
	// landed mid-collective).
	DeferredFor  vtime.Duration
	DrainedMsgs  int
	DrainedBytes uint64
	// ImageBytes is what this checkpoint actually wrote to the parallel
	// filesystem: full snapshots, or only the carried (post-dedup) dirty
	// pages for incremental images.
	ImageBytes uint64
	// FullBytes is what self-contained images of the same state would
	// have written; ImageBytes/FullBytes is the incremental saving.
	FullBytes uint64
	// DirtyBytes counts the bytes in pages dirtied since the previous
	// checkpoint, before dedup (equal to ImageBytes for full images).
	DirtyBytes uint64
	// DedupBytes counts dirty page bytes dropped because their contents
	// were bit-identical to the previous committed generation.
	DedupBytes uint64
	// FullImages and DeltaImages count per-rank image modes (a rank with
	// no committed base falls back to full even mid-chain).
	FullImages  int
	DeltaImages int
	// MaxWriteTime is the slowest rank's image write (PFS queueing included);
	// for incremental checkpoints it is charged per dirty byte carried.
	MaxWriteTime vtime.Duration
	// DrainPlanned counts the in-flight collectives the dependency-
	// ordered drain (arXiv:2408.02218) completed before this checkpoint
	// could land, including collectives that entered the plan while the
	// drain ran; OverlapWidth is how many were simultaneously in flight
	// when the plan was built; DrainEvents counts the scheduler events
	// dispatched while draining. All zero for a request serviced at an
	// immediate safe point.
	DrainPlanned int
	OverlapWidth int
	DrainEvents  uint64
	// StoredBytes is what the storage layer actually moved for this
	// checkpoint: ImageBytes after the delta-page compression stage
	// (equal to ImageBytes when compression is off).
	StoredBytes uint64
	// CompressSavedBytes and CompressTime account the per-page delta
	// compressor: PFS bytes saved versus kernel CPU charged to the
	// ranks' checkpoint-overhead clocks.
	CompressSavedBytes uint64
	CompressTime       vtime.Duration
	// StagedBytes and SpilledBytes split the stored payload between the
	// node burst buffers and the synchronous PFS write-through forced by
	// capacity overflow (both zero without staging).
	StagedBytes  uint64
	SpilledBytes uint64
	// PFSWait is the total virtual time this checkpoint's PFS transfers
	// — direct writes, capacity spills, asynchronous drains — spent
	// queued behind other transfers on the contended filesystem: the
	// emergent-straggler signal.
	PFSWait vtime.Duration
	// DurableAt is when this checkpoint's link finished draining to the
	// PFS and became a durable restore candidate; for direct writes it
	// equals SafeAt + MaxWriteTime.
	DurableAt vtime.Time
	// TornImages counts per-rank images whose PFS write was interrupted by
	// an injected torn-write fault (Complete == false, partial payload);
	// CorruptPages counts pages silently damaged by injected
	// page-corruption faults. Both zero for a clean checkpoint.
	TornImages   int
	CorruptPages int
	// DrainTornImages and DrainCorruptPages count injected faults on the
	// buffer→PFS drain hop ("image-write/drain" anchors): the damage
	// lands on the durable copy after the commit fingerprinted the clean
	// staged payload, so the run continues and the damage surfaces only
	// at restart verification.
	DrainTornImages   int
	DrainCorruptPages int
	// Fingerprint digests every rank's image for determinism checks.
	Fingerprint uint64
}

// DedupRatio reports the fraction of dirty bytes dropped by dedup.
func (r CheckpointRecord) DedupRatio() float64 {
	if r.DirtyBytes == 0 {
		return 0
	}
	return float64(r.DedupBytes) / float64(r.DirtyBytes)
}

// RestartRecord describes one successful restart; the generation store
// accumulates it (ckptstore.RestartRecord).
type RestartRecord = ckptstore.RestartRecord

// request is one in-flight checkpoint request.
type request struct {
	at            vtime.Time
	midCollective bool
	// trigger is the index of the trigger that fired this request, so a
	// restart can un-consume triggers whose checkpoint never committed.
	trigger int
}

// eventKind identifies one scheduler event type.
type eventKind uint8

const (
	// evRankReady dispatches one rank's next scripted operation.
	evRankReady eventKind = iota
	// evDelivery makes a message visible at its receiver; if the
	// receiver is blocked on a matching receive it is woken.
	evDelivery
	// evCollectiveDone completes the forming collective for every
	// participant.
	evCollectiveDone
	// evTrigger arms or fires one checkpoint trigger at its At time.
	evTrigger
	// evFail is the injected failure.
	evFail
	// evDrainDone completes one rank's asynchronous burst-buffer→PFS
	// drain for one committed checkpoint.
	evDrainDone
)

// event is one entry on the virtual-time queue. It is 8 bytes and holds
// no pointer — every move between the queue's buckets copies it, and a
// pointer-free queue needs no write barriers and is never scanned by
// the collector — so it carries two small integers. A collective
// completion looks the rest up in the forming record of its
// communicator; a delivery (receiver, sender) and a drain completion
// (checkpoint, rank) need nothing more.
type event struct {
	// arg is the kind's one index: the rank (evRankReady), the receiver
	// (evDelivery), the communicator id (evCollectiveDone), the index
	// into cfg.Triggers (evTrigger) or into faults (evFail), or the
	// checkpoint seq (evDrainDone).
	arg int32
	// tag is the kind in its low byte and, for evDelivery and
	// evDrainDone, a rank above it: the sender, the draining rank. Above
	// an evRankReady's kind is zero, or the receiver plus one of the
	// delivery the event carries (runAhead).
	tag uint32
}

// rankShift places an event's second rank above the kind byte of
// event.tag; every rank id must fit the 24 bits left.
const rankShift = 8

// Compile-time check: a job's largest rank id fits above the kind byte.
const _ = uint(1<<(32-rankShift) - scenario.MaxRanks)

func (e event) kind() eventKind { return eventKind(e.tag) }

// global reports whether e is a trigger or a fault: an event that can
// cut the timeline — take a checkpoint, end the run — so that the ranks'
// state at its time is what it shows. The coordinator keeps the time of
// each queued global event in its globals heap, and no rank runs ahead
// past one (runAhead). A drain completion is not global: it changes only
// the generation store, which no rank operation reads, and it still pops
// in time order against the triggers and faults that read the store.
func (e event) global() bool {
	k := e.kind()
	return k == evTrigger || k == evFail
}

// rank is the rank above the kind byte: an evDelivery's sender, an
// evDrainDone's draining rank, an evRankReady's carried receiver plus
// one.
func (e event) rank() int { return int(e.tag >> rankShift) }

// indexEvent is an event of a kind that carries no rank above its kind.
func indexEvent(k eventKind, arg int) event { return event{arg: int32(arg), tag: uint32(k)} }

// rankEvent is an event of kind k carrying arg and, above the kind, rank.
func rankEvent(k eventKind, arg, rank int) event {
	return event{arg: int32(arg), tag: uint32(rank)<<rankShift | uint32(k)}
}

// Coordinator is one job: what survives a failure — the configuration,
// the triggers fired, the generation store and the records, the fault plan's
// progress, the counters and the job's mapping table — and the timeline
// it is running, which a failure destroys. A restart builds the next
// timeline from the restore point (begin) and drops the dead one.
type Coordinator struct {
	// timeline is embedded so that the event loop reads the timeline's
	// fields as its own.
	*timeline

	cfg   Config
	fired []bool
	// drained is the drain phase's buffer for one rank's messages, reused
	// from rank to rank and drain to drain.
	drained []netsim.Message

	records  []CheckpointRecord
	restarts []RestartRecord
	// store holds the retained generations and the storage pipeline; it
	// is per run, so concurrent fleet runs never share queue state.
	store *ckptstore.Store

	// Fault-plan state: faultFired marks each of cfg.Faults as consumed
	// (every fault is one-shot), and restartAttempts counts Restart
	// calls (failed ones included) — the ordinal restart faults key on.
	faultFired      []bool
	restartAttempts int

	// maps is the job's mapping table: the ranks of every timeline that
	// grow their heaps alike share the descriptors, and jobs on other
	// goroutines never see them. sbrks counts each program class's heap
	// growths, which every rank's region table is sized for.
	maps  *memsim.Mappings
	sbrks sbrkCounts

	// events counts dispatched events: every queue event popped, every
	// operation a rank ran ahead (the ready event it would have been
	// without run-ahead) and, at completion, the deliveries still queued
	// (sweepStaleDeliveries). rankVisits counts how many times the
	// scheduler touched a rank: an op executed (ran ahead or not), a wake
	// attempt, a collective completion. Under the old full-scan loop the
	// visit count was iterations x ranks; here it scales with actual
	// work. Neither depends on how many operations ran ahead.
	events     uint64
	rankVisits uint64
	// dispatched, when set (tests only, through OnDispatch), is called
	// with the time of every event the serial loop dispatches, and with
	// the start time of every operation a rank runs ahead; committed
	// (OnCommit) with the seq of every checkpoint the store committed.
	dispatched func(vtime.Time)
	committed  func(seq int)
	// stepwise, set only by tests (export_test.go), turns run-ahead off:
	// every operation is then a queue event of its own. ranAhead counts
	// the operations run ahead, so events-ranAhead is the queue pops.
	stepwise bool
	ranAhead uint64

	// digest folds checkpoint images into their fingerprint, keeping the
	// text they repeat. final memoises FinalFingerprint while finalOK;
	// fingerprintPasses counts how often it was actually computed.
	digest            digester
	final             uint64
	finalOK           bool
	fingerprintPasses int
}

// timeline is one run of the job's ranks from their construction or a
// restore point: the ranks, the network and every event queued on them,
// the rendezvous and drain in progress and the requests not yet
// serviced. Nothing in it outlives a failure.
type timeline struct {
	ranks []*rank.Rank
	net   *netsim.Network
	// queue holds every scheduled event of the timeline.
	queue *vtime.EventQueue[event]
	// globals holds the time of every queued global event (trigger,
	// fault): its least is how far a rank may run ahead of the queue.
	globals timeHeap

	// armed holds indexes of condition triggers (MidCollective/InFlight)
	// whose At time has passed; their conditions are re-checked after
	// every dispatched event.
	armed   []int
	pending []request

	// Communicator registry: comms[0] is MPI_COMM_WORLD; comm-split
	// completions append sub-communicators in deterministic order.
	comms []comm

	// Collective rendezvous state: one forming instance per communicator
	// with arrivals outstanding (comm.forming). collList keeps them in
	// instance order (by seq) so every iteration over the in-flight set
	// — scheduling re-checks, drain-graph construction, deadlock
	// diagnostics — is deterministic. collSeq numbers the timeline's
	// instances; formingPool recycles completed rendezvous so the
	// steady-state event loop does not allocate per collective.
	collList    []*forming
	collSeq     uint64
	formingPool []*forming

	// plan is the drain in progress (see collective.go), nil when there
	// is none: while draining, ranks the plan does not need are held at
	// their next collective boundary and consume no scheduler work until
	// the checkpoint commits.
	plan *drainPlan
}

// New builds a job from the config: one rank per ID running its
// program, each built whole (rank.Build) with the job's kernel model,
// mapping table and its program's sbrk count, as Restart builds each
// from its image, and the job's first timeline (begin).
func New(cfg Config) *Coordinator {
	if cfg.Ranks <= 0 || cfg.Ranks > scenario.MaxRanks {
		panic(fmt.Sprintf("coordinator: config needs 1 to %d ranks, has %d", scenario.MaxRanks, cfg.Ranks))
	}
	if len(cfg.Programs) != cfg.Ranks {
		panic(fmt.Sprintf("coordinator: config carries %d programs for %d ranks", len(cfg.Programs), cfg.Ranks))
	}
	c := &Coordinator{
		cfg:   cfg,
		fired: make([]bool, len(cfg.Triggers)),
		store: ckptstore.New(cfg.Storage, cfg.Ranks, cfg.RetainGenerations),
		maps:  new(memsim.Mappings),
		sbrks: sbrkCounts{},
	}
	if len(cfg.Faults) > 0 {
		c.faultFired = make([]bool, len(cfg.Faults))
	}
	ranks := make([]*rank.Rank, cfg.Ranks)
	kernel := kernelsim.NewForTable(cfg.Personality, cfg.Virtid)
	counts := make([]rank.CountTable, cfg.Ranks)
	for id, prog := range cfg.Programs {
		ranks[id] = rank.Build(id, kernel, prog, c.maps, c.sbrks.of(prog), &counts[id])
	}
	c.begin(ranks)
	return c
}

// begin gives the job a new timeline of ranks: an empty network built
// for them, the communicator registry read off the ranks' slot tables,
// and an event queue seeded with the unfired triggers, the unfired
// virtual-time faults and one ready event per unfinished rank.
func (c *Coordinator) begin(ranks []*rank.Rank) {
	c.timeline = &timeline{
		ranks: ranks,
		net:   netsim.Build(c.cfg.Net, len(ranks)),
		// Preallocated for the steady-state population: one ready event
		// per rank.
		queue: vtime.NewEventQueueSized[event](len(ranks) + 16),
		comms: commsOf(ranks),
	}
	for i, t := range c.cfg.Triggers {
		if !c.fired[i] {
			c.pushGlobal(t.At, indexEvent(evTrigger, i))
		}
	}
	for i, f := range c.cfg.Faults {
		if !c.faultFired[i] && f.Anchor == faultplan.AtVirtualTime {
			c.pushGlobal(f.Time, indexEvent(evFail, i))
		}
	}
	for _, r := range ranks {
		if r.State() != rank.Done {
			c.scheduleReady(r)
		}
	}
}

// sbrkCounts counts the heap growths of each program class once. The
// ranks of a compiled class hold slice headers onto one backing array,
// which its first op and its length identify, so a job of many ranks
// scans each distinct stream once instead of once per rank.
type sbrkCounts map[programKey]int

type programKey struct {
	first *scenario.Op
	n     int
}

func (c sbrkCounts) of(p scenario.Program) int {
	if len(p) == 0 {
		return 0
	}
	k := programKey{&p[0], len(p)}
	n, ok := c[k]
	if !ok {
		n = p.Sbrks()
		c[k] = n
	}
	return n
}

// queueDelivery queues the delivery of the message rank from sent to
// receiver to-1 (rank.Transition.SentTo), due one wire latency after at,
// the time the sender's link freed: the message's Arrive (netsim.Send).
// A send dispatch executes is queued as Execute returns; a send a rank
// ran ahead, by the rank's next ready event (runAhead).
func (c *Coordinator) queueDelivery(at vtime.Time, to, from int) {
	c.queue.Push(at.Add(c.cfg.Net.Latency), rankEvent(evDelivery, to-1, from))
}

// pushGlobal queues a global event (event.global) and notes its time.
func (c *Coordinator) pushGlobal(t vtime.Time, ev event) {
	c.globals.push(t)
	c.queue.Push(t, ev)
}

// scheduleReady queues the rank's next ready event, if it has one.
func (c *Coordinator) scheduleReady(r *rank.Rank) {
	if t, ok := r.NextReady(); ok {
		c.queue.Push(t, indexEvent(evRankReady, r.ID()))
	}
}

// Ranks returns the simulated ranks.
func (c *Coordinator) Ranks() []*rank.Rank { return c.ranks }

// Records returns the committed checkpoint records.
func (c *Coordinator) Records() []CheckpointRecord { return c.records }

// Restarts returns the restart records.
func (c *Coordinator) Restarts() []RestartRecord { return c.restarts }

// EventsDispatched returns the number of events dispatched so far: the
// queue events popped, each operation a rank ran ahead counted as the
// ready event it replaced (runAhead), and at completion the deliveries
// still queued. It does not depend on how many operations ran ahead.
func (c *Coordinator) EventsDispatched() uint64 { return c.events }

// RankVisits returns how many times the scheduler touched a rank: one
// per executed operation (run ahead or not), wake attempt and collective
// completion. The old full-scan loop visited every rank on every
// iteration; this counter is what the scaling tests compare against that
// baseline.
func (c *Coordinator) RankVisits() uint64 { return c.rankVisits }

// MaxClock returns the maximum rank clock — the job's virtual makespan so
// far, and its high-water mark, since no clock runs backwards. It scans
// the ranks, so the per-event loop never calls it.
func (c *Coordinator) MaxClock() vtime.Time {
	var t vtime.Time
	for _, r := range c.ranks {
		t = max(t, r.Clock().Now())
	}
	return t
}

// nonDone counts the ranks whose scripts are not exhausted: the world
// communicator's live members.
func (c *Coordinator) nonDone() int { return c.comms[0].live }

// fireTrigger converts trigger i into a pending checkpoint request.
func (c *Coordinator) fireTrigger(i int) {
	c.fired[i] = true
	c.pending = append(c.pending, request{at: c.MaxClock(), midCollective: c.collectiveInProgress(), trigger: i})
}

// armTrigger handles trigger i's At time coming due: plain virtual-time
// triggers fire immediately; condition triggers (mid-collective,
// in-flight) join the armed set and are checked after every event.
func (c *Coordinator) armTrigger(i int) {
	if c.fired[i] {
		return
	}
	t := c.cfg.Triggers[i]
	if !t.MidCollective && !t.InFlight && t.FormingColls == 0 {
		c.fireTrigger(i)
		return
	}
	c.armed = append(c.armed, i)
	c.checkArmedTriggers()
}

// checkArmedTriggers fires any armed condition trigger whose condition
// currently holds. With no armed triggers this is a single length check,
// so the per-event cost of trigger support is O(1).
func (c *Coordinator) checkArmedTriggers() {
	if len(c.armed) == 0 {
		return
	}
	kept := c.armed[:0]
	for _, i := range c.armed {
		t := c.cfg.Triggers[i]
		due := false
		switch {
		case t.MidCollective:
			in := c.inCollective()
			due = in > 0 && in < c.nonDone()
		case t.InFlight:
			due = c.net.InFlight() > 0
		case t.FormingColls > 0:
			due = len(c.collList) >= t.FormingColls
		}
		if due {
			c.fireTrigger(i)
		} else {
			kept = append(kept, i)
		}
	}
	c.armed = kept
}

// afterRankProgress updates bookkeeping after a rank's operation
// completed, a collective's included: the live counts of its communicators
// if it finished its script — which lowers collective participation bars,
// possibly completing collectives (noteDone) — or its next operations
// (runAhead). sent reports that the operation was a send or an isend.
func (c *Coordinator) afterRankProgress(r *rank.Rank, sent bool) {
	if r.State() == rank.Done {
		c.noteDone(r)
	} else {
		c.runAhead(r, sent)
	}
}

// runAhead runs r's next operations in this visit, then queues its ready
// event. It runs an operation only while no rank could tell that it ran
// early rather than from a ready event of its own: the operation is
// local (rank.NextLocal: not a receive, a collective or the script's
// last), it starts before every queued global event, no condition
// trigger is armed (their conditions are checked after each event) and
// no drain is in progress. The events at earlier times it runs past —
// deliveries, collective completions, other ranks' operations — cannot
// observe it: a message it sends is invisible to its receiver until it
// arrives.
//
// Running ahead grows no storage. A visit runs at most one send, the
// operation it began with included, and only into a pair ring with room.
// That send's delivery is not queued beside the ready event, where it
// would sit for the whole of a compute phase run ahead of it: the ready
// event carries it and queues it when it pops (dispatch), so the queue
// never holds more events than if each operation were an event of its
// own. Each operation counts as the event it replaces: one event, one
// rank visit and a dispatch at its start time.
func (c *Coordinator) runAhead(r *rank.Rank, sent bool) {
	carried := 0
	for !sent && !c.stepwise && len(c.armed) == 0 && !c.draining() {
		t := r.Clock().Now()
		peer, send, ok := r.NextLocal()
		if !ok || t >= c.globals.min() || send && c.net.Room(r.ID(), peer) == 0 {
			break
		}
		c.events++
		c.rankVisits++
		c.ranAhead++
		if c.dispatched != nil {
			c.dispatched(t)
		}
		r.Execute(c.net)
		if sent = send; send {
			carried = peer + 1
		}
	}
	if t, ok := r.NextReady(); ok {
		c.queue.Push(t, rankEvent(evRankReady, r.ID(), carried))
	}
}

// dispatch executes one event popped at virtual time t. It returns
// failed=true when the injected failure fired, and an error when the
// ranks' programs turn out to disagree.
func (c *Coordinator) dispatch(t vtime.Time, ev event) (failed bool, err error) {
	switch ev.kind() {
	case evRankReady:
		r := c.ranks[ev.arg]
		if to := ev.rank(); to > 0 {
			// The visit that queued this event ended with a send run
			// ahead, and the event carries its delivery (runAhead): the
			// sender's link frees now.
			c.queueDelivery(t, to, r.ID())
		}
		if c.draining() && c.shouldHold(r) {
			// The rank reached its safe point for the in-progress drain:
			// it is held (no ready event) until the checkpoint commits or
			// the plan turns out to need it.
			c.plan.held[r.ID()] = true
			return false, nil
		}
		c.rankVisits++
		tr := r.Execute(c.net)
		if tr.SentTo > 0 {
			c.queueDelivery(r.Clock().Now(), tr.SentTo, r.ID())
		}
		switch tr.Kind {
		case rank.Advanced:
			c.afterRankProgress(r, tr.SentTo > 0)
		case rank.BlockedOnRecv:
			// Zero scheduler work until a delivery event wakes it — but a
			// rank the drain plan needs must not starve behind a held
			// sender, so its blocked peer becomes needed (and released).
			if c.draining() && c.plan.needed[r.ID()] > 0 {
				if peer, ok := r.BlockedOn(); ok && c.plan.needed[peer] == 0 {
					c.markNeeded(peer)
				}
			}
		case rank.JoinedCollective:
			return false, c.joinCollective(r, &tr)
		}
	case evDelivery:
		r := c.ranks[ev.arg]
		if peer, ok := r.BlockedOn(); ok && peer == ev.rank() {
			c.rankVisits++
			if r.Wake(c.net, t) {
				c.afterRankProgress(r, false)
			}
		}
		// Otherwise the receiver is not waiting for this message: it will
		// consume it from the network (the message has arrived by now, so
		// the arrival gate passes) or its drained inbox when its own ready
		// event reaches the receive, so the event is a no-op.
	case evCollectiveDone:
		c.completeCollective(int(ev.arg), t)
	case evTrigger:
		c.armTrigger(int(ev.arg))
	case evFail:
		// Faults are one-shot: ordinal-anchored crashes were marked
		// consumed when scheduled; a virtual-time crash is consumed here,
		// so the restarted timeline replays through its firing point
		// without dying again.
		c.faultFired[ev.arg] = true
		return true, nil
	case evDrainDone:
		c.store.DrainDone(int(ev.arg), ev.rank())
	}
	return false, nil
}

// Run drives the event loop until the job completes or the configured
// failure injection fires. It may be called again after Restart.
//
// Each iteration first services checkpoint state (pending requests at a
// safe point, drain-plan construction otherwise), then pops and
// dispatches the earliest event.
func (c *Coordinator) Run() (Outcome, error) {
	c.finalOK = false
	for {
		for len(c.pending) > 0 && c.atSafePoint() {
			crashed, err := c.checkpoint()
			if err != nil {
				return Failed, err
			}
			if crashed {
				// A torn-write fault: the job died mid-image-write. The
				// partial link is committed (it is on the filesystem) but
				// restart verification will reject it.
				return Failed, nil
			}
		}
		if len(c.pending) > 0 && !c.draining() {
			// Checkpoint intent with collectives in flight: build the
			// dependency-ordered drain plan (a cycle here is the
			// application's own deadlock, diagnosed rather than hung).
			if err := c.beginDrain(); err != nil {
				return Failed, err
			}
		}
		if c.nonDone() == 0 {
			if got := c.net.InFlight(); got != 0 {
				return Failed, fmt.Errorf("coordinator: job done with %d unreceived messages", got)
			}
			c.sweepStaleDeliveries()
			return Completed, nil
		}
		t, ev, ok := c.pop()
		if !ok {
			// Before reporting the generic stall, check whether the
			// in-flight collectives explain it: a dependency cycle between
			// them is the classic mis-ordered-collectives deadlock, and the
			// diagnostic can name the ranks involved.
			if c.collectiveInProgress() {
				if err := checkAcyclic(c.buildDrainGraph()); err != nil {
					return Failed, fmt.Errorf("coordinator: deadlock after %d events: %w", c.events, err)
				}
			}
			return Failed, fmt.Errorf(
				"coordinator: deadlock after %d events — %d ranks not done, %d in collective, %d messages in flight, no event can wake them",
				c.events, c.nonDone(), c.inCollective(), c.net.InFlight())
		}
		if c.dispatched != nil {
			c.dispatched(t)
		}
		if failed, err := c.dispatch(t, ev); err != nil || failed {
			return Failed, err
		}
		c.checkArmedTriggers()
	}
}

// sweepStaleDeliveries empties the finished timeline's queue and counts
// the delivery events in it as dispatched, so the events counter equals
// every delivery ever pushed in the timeline plus every other event
// popped. Each is a no-op: its message was consumed when the receiver
// reached its receive at or after the arrival time, and every rank is
// done, so there is no blocked receiver to wake. The unfired triggers,
// faults and drain completions popped with them are not part of the
// timeline's event flow and are not counted.
func (c *Coordinator) sweepStaleDeliveries() {
	for _, ev, ok := c.queue.Pop(); ok; _, ev, ok = c.queue.Pop() {
		if ev.kind() == evDelivery {
			c.events++
		}
	}
}

// pop removes the earliest event; a global one takes its time, the least
// in globals, with it.
func (c *Coordinator) pop() (vtime.Time, event, bool) {
	t, ev, ok := c.queue.Pop()
	if ok {
		c.events++
		if ev.global() {
			c.globals.pop()
		}
	}
	return t, ev, ok
}

// timeHeap is a binary min-heap of times.
type timeHeap []vtime.Time

// min returns the least time, or the greatest Time when h is empty.
func (h timeHeap) min() vtime.Time {
	if len(h) == 0 {
		return math.MaxInt64
	}
	return h[0]
}

func (h *timeHeap) push(t vtime.Time) {
	*h = append(*h, t)
	a := *h
	for i := len(a) - 1; i > 0; {
		parent := (i - 1) / 2
		if a[parent] <= a[i] {
			break
		}
		a[parent], a[i] = a[i], a[parent]
		i = parent
	}
}

// pop removes the least time; h is not empty.
func (h *timeHeap) pop() {
	a := *h
	last := len(a) - 1
	a[0] = a[last]
	a = a[:last]
	for i := 0; ; {
		least := i
		for _, k := range [2]int{2*i + 1, 2*i + 2} {
			if k < len(a) && a[k] < a[least] {
				least = k
			}
		}
		if least == i {
			break
		}
		a[i], a[least] = a[least], a[i]
		i = least
	}
	*h = a
}

// drain runs phase 1's message drain: every in-flight message is received
// into its destination rank's buffer, with probe and copy costs charged
// to the checkpoint-overhead accounts, until the ranks' per-peer counts
// agree the network is quiescent. One pass does it: each rank's DrainTo
// empties every pair that ends at it, and nothing sends while the job
// drains.
func (c *Coordinator) drain(rec *CheckpointRecord) {
	if c.net.InFlight() == 0 {
		return
	}
	for _, r := range c.ranks {
		c.drained = c.net.DrainTo(r.ID(), c.drained[:0])
		for _, m := range c.drained {
			r.BufferDrained(m)
			r.ChargeCkptOverhead(r.Kernel().DrainBufferCost(m.Bytes))
			rec.DrainedMsgs++
			rec.DrainedBytes += m.Bytes
		}
		// One counter-comparison probe per peer that has ever sent to
		// this rank: with its pairs drained, those are the peers it has
		// received from.
		for _, pc := range r.Counts() {
			if pc.Received > 0 {
				r.ChargeCkptOverhead(r.Kernel().DrainProbeCost())
			}
		}
	}
}

// wantIncremental decides this checkpoint's capture mode: incremental
// only when configured, when a committed chain exists to delta against,
// and when the FullImageEvery cadence has not come due (each full image
// starts a new chain, bounding how many links a restart must read).
func (c *Coordinator) wantIncremental() bool {
	n := c.store.ChainLen()
	return c.cfg.Incremental && n > 0 && (c.cfg.FullImageEvery <= 0 || n < c.cfg.FullImageEvery)
}

// captureStage captures one rank's image into its slot of the link in the
// requested mode (prev is the slot captured just before, nil for the
// first), charges the capture-side kernel costs (page-table scan over the
// whole upper half, one content hash per dirty page — only the scan
// scales with address-space size) and stamps the chain bookkeeping.
func (c *Coordinator) captureStage(r *rank.Rank, img, prev *rank.Image, incremental bool, seq int) {
	r.CaptureInto(img, incremental, prev)
	img.Seq = seq
	if !img.Full {
		img.Base = seq - 1
		k := r.Kernel()
		r.ChargeCkptOverhead(vtime.Duration(img.Delta.ScannedPages)*k.PageScanCost() +
			vtime.Duration(img.Delta.DirtyPages)*k.PageHashCost())
	}
}

// accountStage folds one image's size accounting into the record.
// ImageBytes counts what actually reached the filesystem, so a torn image
// contributes only its partial written size.
func (c *Coordinator) accountStage(img *rank.Image, rec *CheckpointRecord) {
	rec.ImageBytes += img.WrittenBytes
	rec.StoredBytes += img.StoredBytes
	rec.FullBytes += img.FullBytes()
	if img.Full {
		rec.FullImages++
		rec.DirtyBytes += img.Bytes()
		return
	}
	rec.DeltaImages++
	rec.DirtyBytes += img.Delta.DirtyBytes
	rec.DedupBytes += img.Delta.DedupBytes
}

// compressStage runs the storage config's per-page compressor over one
// rank's delta payload, charging the kernel CPU cost per input byte and
// recording the stored (post-compression) size on the image. Full images
// and torn (stage-fault) images pass through uncompressed: full snapshots
// are the chain's integrity anchor, and a torn write was aborted mid-copy.
func (c *Coordinator) compressStage(r *rank.Rank, img *rank.Image, rec *CheckpointRecord) {
	sc := &c.cfg.Storage
	if !sc.Compression || img.Full || !img.Complete {
		return
	}
	stored, raw := sc.CompressDelta(&img.Delta)
	cost := r.Kernel().CompressCost(raw, sc.CompressCost)
	r.ChargeCkptOverhead(cost)
	img.StoredBytes = img.WrittenBytes - raw + stored
	rec.CompressSavedBytes += raw - stored
	rec.CompressTime += cost
}

// writeStage charges one rank the write of its stored payload, as the
// generation store prices it: per byte carried, so a delta pays for its
// dirty pages and a torn image only up to the tear.
func (c *Coordinator) writeStage(r *rank.Rank, img *rank.Image, rec *CheckpointRecord) {
	w := c.store.Write(r.ID(), rec.SafeAt, img.StoredBytes)
	r.ChargeCkptOverhead(w.Time)
	rec.PFSWait += w.PFSWait
	rec.StagedBytes += w.Staged
	rec.SpilledBytes += w.Spilled
	rec.MaxWriteTime = max(rec.MaxWriteTime, w.Time)
}

// checkpoint services the oldest pending request with the two-phase
// protocol. The caller guarantees the job is at a safe point. Ranks left
// blocked in a receive whose message was drained into their inbox are
// woken by the message's still-queued delivery event. crashed reports
// that an image-write fault killed the job during the commit — the
// partial link is committed, and the caller must stop the run.
func (c *Coordinator) checkpoint() (crashed bool, err error) {
	req := c.pending[0]
	c.pending = c.pending[1:]
	rec := CheckpointRecord{
		Seq:           len(c.records) + 1,
		RequestedAt:   req.at,
		MidCollective: req.midCollective,
	}
	if c.draining() {
		// The dependency-ordered collective drain just completed: record
		// its shape and release the ranks held at their safe points once
		// the images are committed.
		rec.DrainPlanned = c.plan.planned
		rec.OverlapWidth = c.plan.width
		rec.DrainEvents = c.events - c.plan.startEvents
		defer c.endDrain()
	}

	// Phase 1: deliver the intent signal, then drain the network.
	for _, r := range c.ranks {
		r.ChargeCkptOverhead(r.Kernel().CheckpointSignalCost())
	}
	c.drain(&rec)
	if got := c.net.InFlight(); got != 0 {
		return false, fmt.Errorf("coordinator: %d messages in flight after drain", got)
	}
	rec.SafeAt = c.MaxClock()
	rec.DeferredFor = rec.SafeAt.Sub(rec.RequestedAt)

	// Phase 2: the commit pipeline — capture, stage-hop faults,
	// compression, dedup accounting, write — run rank by rank in rank
	// order, so no map order reaches the record. Capture runs first for
	// every rank so stage-hop image-write faults (torn or corrupted
	// links) can damage the captured payloads before compression,
	// accounting, write charging and digesting see them; for a clean
	// checkpoint the split loop is byte-identical to the fused one
	// (captures do not interact across ranks). The link's images go into
	// an array the store hands out, a retired link's when it has one.
	incremental := c.wantIncremental()
	images := c.store.Slots(len(c.ranks))
	var prev *rank.Image
	for i, r := range c.ranks {
		c.captureStage(r, &images[i], prev, incremental, rec.Seq)
		prev = &images[i]
	}
	crashed = c.applyWriteFaults(faultplan.HopStage, images, &rec)
	for i, r := range c.ranks {
		c.compressStage(r, &images[i], &rec)
	}
	h := fnv1a.Offset
	for i, r := range c.ranks {
		c.accountStage(&images[i], &rec)
		c.writeStage(r, &images[i], &rec)
		h = c.digest.image(h, &images[i])
	}
	rec.Fingerprint = uint64(h)
	// Drain-hop faults damage the durable copy the store is about to
	// commit. A link is durable once written, or when the last of the
	// drains the store queued for a staged link lands; each drain's
	// completion is an event.
	c.applyWriteFaults(faultplan.HopDrain, images, &rec)
	rec.DurableAt = rec.SafeAt.Add(rec.MaxWriteTime)
	for _, d := range c.store.Commit(rec.Seq, images) {
		rec.PFSWait += d.Wait
		rec.DurableAt = max(rec.DurableAt, d.Done)
		c.queue.Push(d.Done, rankEvent(evDrainDone, rec.Seq, d.Rank))
	}
	c.records = append(c.records, rec)
	if c.committed != nil {
		c.committed(rec.Seq)
	}

	// Checkpoint-commit crashes are events like everything else: each
	// fires its delay of virtual time after the commit point.
	for i, f := range c.cfg.Faults {
		if !c.faultFired[i] && f.Anchor == faultplan.AtCheckpointCommit && f.N == rec.Seq {
			c.faultFired[i] = true
			c.pushGlobal(rec.SafeAt.Add(f.Delay), indexEvent(evFail, i))
		}
	}
	return crashed, nil
}

// applyWriteFaults fires the image-write faults anchored to this
// checkpoint at one hop of the write path, damaging images in place: a
// torn-write truncates the target rank's image at a byte-accurate partial
// size, a page-corruption silently damages the payload — the capture-time
// hash memos go stale, which is exactly what restart verification later
// trips over. Corruption lands on private copies of the damaged pages
// (image payloads share pages with the live ranks).
//
// At the stage hop the images are the captured payloads, before
// compression, accounting and digesting see them, and a torn write kills
// the job at the commit point (crashed=true). At the drain hop they are
// the committed link's durable copy, damaged after the commit
// fingerprinted the clean staged payload: the drain is asynchronous, so
// nothing observes the damage at commit time, the job does not crash, and
// a torn or corrupted durable copy surfaces only when a later restart's
// verification walk rehashes the link.
//
// The damage is slot-local: it never reaches a payload the slot shares
// with another slot or link (the request FIFO and communicator tables
// shared with the previous rank, the handle table's and the stats
// records, a recaptured snapshot or region list). A torn write rewrites
// the slot's own scalar fields; a corruption gives the slot its own copy
// of the snapshot header, CorruptSnapshot copies the region list and the
// damaged pages, and CorruptDelta copies each damaged page into a page
// list only a delta that carries pages owns.
func (c *Coordinator) applyWriteFaults(hop faultplan.Hop, images []rank.Image, rec *CheckpointRecord) (crashed bool) {
	torn, corrupt := &rec.TornImages, &rec.CorruptPages
	if hop == faultplan.HopDrain {
		torn, corrupt = &rec.DrainTornImages, &rec.DrainCorruptPages
	}
	for i, f := range c.cfg.Faults {
		if c.faultFired[i] || f.Anchor != faultplan.AtImageWrite || f.Hop != hop || f.N != rec.Seq {
			continue
		}
		c.faultFired[i] = true
		img := &images[f.Rank]
		switch f.Kind {
		case faultplan.TornWrite:
			total := img.Bytes()
			written := total / 2
			if f.Pages > 0 {
				written = uint64(f.Pages) * memsim.PageSize
			}
			if written > total {
				written = total
			}
			img.Complete = false
			img.WrittenBytes = written
			img.StoredBytes = written
			*torn++
			crashed = hop == faultplan.HopStage
		case faultplan.PageCorruption:
			if img.Full {
				mem := *img.Mem
				*corrupt += memsim.CorruptSnapshot(&mem, f.Pages)
				img.Mem = &mem
			} else {
				*corrupt += memsim.CorruptDelta(&img.Delta, f.Pages)
			}
		}
	}
	return crashed
}

// ErrRestartFault marks a restart attempt killed by an injected restart
// fault after its restore point was chosen — the link being read is
// destroyed, and the caller retries to fall back past it. The other named
// failure of the restart path, ckptstore.ErrNoVerifiableGeneration, means
// nothing retained verified.
var ErrRestartFault = errors.New("coordinator: injected restart fault")

// ErrNoCheckpoint means a restart found nothing committed to restart
// from: the job failed before its first checkpoint committed.
var ErrNoCheckpoint = errors.New("coordinator: no committed checkpoint to restart from")

// Restart builds the job's next timeline from the restore point the
// generation store chooses (ckptstore.Store.Choose), or returns
// ErrNoCheckpoint when nothing was committed and the store's error, which
// wraps ckptstore.ErrNoVerifiableGeneration, when nothing verifies: each
// rank built whole from its image over a fresh lower half
// (rank.FromImage), paying the read of its chain and the lower half's
// reinitialisation, and an empty network (the images were taken on a
// quiescent network, and each carries its rank's per-peer counts). The
// dead timeline — its events, rendezvous, drain and requests — is
// dropped.
func (c *Coordinator) Restart() error {
	if c.store.Newest() == 0 {
		return ErrNoCheckpoint
	}
	c.finalOK = false
	c.restartAttempts++
	rs, err := c.store.Choose(c.chargeVerify)
	if err != nil {
		return err
	}
	for i, f := range c.cfg.Faults {
		if !c.faultFired[i] && f.Anchor == faultplan.AtRestart && f.N == c.restartAttempts {
			// The restart process itself crashes while reading the chosen
			// link, destroying it: poison the seq so the retry's walk falls
			// back past it. Verification work already done stays charged
			// and is folded into the record of the attempt that succeeds.
			c.faultFired[i] = true
			c.store.Poison(rs.Seq, c.restartAttempts)
			return fmt.Errorf("coordinator: restart from checkpoint #%d crashed mid-restore: %w", rs.Seq, ErrRestartFault)
		}
	}
	// A checkpoint request whose checkpoint never committed — the job
	// crashed mid-drain or mid-write — is still owed: its trigger is
	// un-consumed so the checkpoint (and its drain plan) is rebuilt in the
	// next timeline. Triggers whose checkpoints committed stay consumed.
	for _, req := range c.pending {
		c.fired[req.trigger] = false
	}
	// Only the dead ranks' records are kept: each rank is built over its
	// dead one, which keeps nothing of it but the checkpoint overhead
	// carried here, so a restart's garbage is not a record per rank. The
	// drain-done events die with the timeline: the store's rollback
	// forgets the transfers they completed.
	preClock := c.MaxClock()
	ranks := c.ranks
	c.timeline = nil
	kernel := kernelsim.NewForTable(c.cfg.Personality, c.cfg.Virtid)
	var overlaid rank.Image
	for i, r := range ranks {
		img, readTime := rs.Image(i, &overlaid)
		prog := c.cfg.Programs[i]
		overhead := r.CkptOverhead()
		rank.FromImage(r, img, kernel, prog, c.maps, c.sbrks.of(prog))
		r.ChargeCkptOverhead(overhead + r.Kernel().RestartReinitCost() + readTime)
	}
	c.begin(ranks)
	rec := c.store.Rollback(rs)
	rec.ResumeClock = c.MaxClock()
	rec.LostWork = max(0, preClock.Sub(rec.ResumeClock))
	c.restarts = append(c.restarts, rec)
	return nil
}

// chargeVerify charges rank i the restart verification walk's rehash of
// pages pages, at its kernel's per-page hash rate, and returns the cost.
func (c *Coordinator) chargeVerify(i, pages int) vtime.Duration {
	r := c.ranks[i]
	cost := vtime.Duration(pages) * r.Kernel().PageHashCost()
	r.ChargeCkptOverhead(cost)
	return cost
}

// bwString renders a storage bandwidth for the report header:
// "16.0GB/s", or "free" for the non-positive free-I/O sentinel.
func bwString(bw float64) string {
	if bw <= 0 {
		return "free"
	}
	return fmt.Sprintf("%.1fGB/s", bw/1e9)
}

// FinalFingerprint digests every rank's final clock and upper-half
// memory, so two runs can be compared for bit-identical results. The
// ranks' address spaces are hashed in place, without writing the state
// markers they owe, through one scratch buffer of this call's own (jobs
// fingerprint concurrently in a fleet), and the result is kept until the
// job next moves (Run, Restart): a finished run is fingerprinted once
// however many callers — the report, the fleet result — ask.
func (c *Coordinator) FinalFingerprint() uint64 {
	if !c.finalOK {
		h := fnv1a.Offset
		var scratch []byte
		for _, r := range c.ranks {
			h = foldFinal(h, r, &scratch)
		}
		c.final, c.finalOK = uint64(h), true
		c.fingerprintPasses++
	}
	return c.final
}

// WriteReport streams the deterministic plain-text summary of the run —
// per-rank virtual times and accounting, per-checkpoint protocol
// records, and the final fingerprint — into w, without ever building the
// whole report in memory. Two identical runs produce byte-identical
// report streams, whatever the writer: the fleet path feeds a hash (or
// discards the bytes entirely) and still observes the exact bytes a
// standalone run prints. Write errors are not reported.
func (c *Coordinator) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "manasim: %d ranks, kernel=%v, virtid=%v, seed=%d\n",
		c.cfg.Ranks, c.cfg.Personality, c.cfg.Virtid, c.cfg.Seed)
	var sent, splits uint64
	for _, r := range c.ranks {
		sent += r.Stats().MsgsSent
		splits += r.Stats().CommSplits
	}
	fmt.Fprintf(w, "job: makespan=%v, events=%d, rank-visits=%d, messages sent=%d\n",
		c.MaxClock(), c.events, c.rankVisits, sent)
	fmt.Fprintf(w, "comms: %d (1 world + %d split), comm-splits executed=%d\n",
		len(c.comms), len(c.comms)-1, splits)
	sc := &c.cfg.Storage
	fmt.Fprintf(w, "storage: pfs-aggregate=%s", bwString(sc.PFSBandwidth))
	if sc.Staging {
		fmt.Fprintf(w, ", burst-buffer=%s cap=%d", bwString(sc.BBBandwidth), sc.BBCapacity)
	} else {
		fmt.Fprintf(w, ", staging=off")
	}
	if sc.Compression {
		fmt.Fprintf(w, ", compression=on cost=%gns/B\n", sc.CompressCost)
	} else {
		fmt.Fprintf(w, ", compression=off\n")
	}

	fmt.Fprintf(w, "\nranks:\n")
	fmt.Fprintf(w, "  %4s %16s %10s %6s %6s %6s %14s %14s\n",
		"rank", "vtime", "mpi-calls", "sent", "recvd", "coll", "mana-overhead", "ckpt-overhead")
	c.writeRankRows(w)

	fmt.Fprintf(w, "\ncheckpoints: %d committed (incremental=%v, full-every=%d)\n",
		len(c.records), c.cfg.Incremental, c.cfg.FullImageEvery)
	for _, rec := range c.records {
		fmt.Fprintf(w, "  #%d requested@%v mid-collective=%v deferred=%v safe@%v\n",
			rec.Seq, rec.RequestedAt, rec.MidCollective, rec.DeferredFor, rec.SafeAt)
		fmt.Fprintf(w, "     drained %d msgs (%d bytes), wrote %d bytes (%dF+%dD), slowest write %v, fp=%016x\n",
			rec.DrainedMsgs, rec.DrainedBytes, rec.ImageBytes, rec.FullImages, rec.DeltaImages,
			rec.MaxWriteTime, rec.Fingerprint)
		fmt.Fprintf(w, "     full %d bytes, dirty %d bytes, dedup %.3f\n",
			rec.FullBytes, rec.DirtyBytes, rec.DedupRatio())
		fmt.Fprintf(w, "     coll-drain: planned=%d overlap-width=%d drain-events=%d\n",
			rec.DrainPlanned, rec.OverlapWidth, rec.DrainEvents)
		fmt.Fprintf(w, "     io: stored %d bytes", rec.StoredBytes)
		if sc.Compression {
			fmt.Fprintf(w, " (saved %d, cpu %v)", rec.CompressSavedBytes, rec.CompressTime)
		}
		if sc.Staging {
			fmt.Fprintf(w, ", staged %d spilled %d", rec.StagedBytes, rec.SpilledBytes)
		}
		fmt.Fprintf(w, ", pfs-wait %v, durable@%v\n", rec.PFSWait, rec.DurableAt)
		if rec.TornImages > 0 || rec.CorruptPages > 0 || rec.DrainTornImages > 0 || rec.DrainCorruptPages > 0 {
			fmt.Fprintf(w, "     faults: torn-images=%d corrupt-pages=%d", rec.TornImages, rec.CorruptPages)
			if rec.DrainTornImages > 0 || rec.DrainCorruptPages > 0 {
				fmt.Fprintf(w, " drain-torn=%d drain-corrupt=%d", rec.DrainTornImages, rec.DrainCorruptPages)
			}
			fmt.Fprintln(w)
		}
	}

	if len(c.restarts) > 0 {
		fmt.Fprintf(w, "\nrestarts: %d\n", len(c.restarts))
		for _, rs := range c.restarts {
			fmt.Fprintf(w, "  restored from checkpoint #%d, resumed at vtime %v\n", rs.FromSeq, rs.ResumeClock)
			fmt.Fprintf(w, "     fallback-depth=%d lost-work=%v verified %d pages in %v (torn-links=%d corrupt-links=%d)",
				rs.FallbackDepth, rs.LostWork, rs.VerifiedPages, rs.VerifyTime, rs.TornLinks, rs.CorruptLinks)
			if rs.BufferOnlyLinks > 0 {
				fmt.Fprintf(w, " buffer-only-links=%d", rs.BufferOnlyLinks)
			}
			fmt.Fprintln(w)
		}
	}

	lk := c.LookupStats()
	fmt.Fprintf(w, "\nvirtid: impl=%v, per-lookup=%v, per-write=%v\n",
		c.cfg.Virtid, c.cfg.Virtid.LookupCost(), c.cfg.Virtid.WriteCost())
	fmt.Fprintf(w, "  lookups: total=%d (comm=%d datatype=%d request=%d), modelled time=%v\n",
		lk.HandleLookups, lk.CommLookups, lk.DatatypeLookups, lk.RequestLookups, lk.LookupTime)
	fmt.Fprintf(w, "  writes: total=%d, modelled time=%v\n", lk.HandleWrites, lk.WriteTime)

	mem := c.memorySummary()
	fmt.Fprintf(w, "\nmemory (rank 0): upper=%d bytes, lower=%d bytes\n", mem[0], mem[1])
	fmt.Fprintf(w, "final fingerprint: %016x\n", c.FinalFingerprint())
}

// reportChunk is the most bytes writeRankRows hands w at once, and
// maxRankRow more than the longest row it can append: five 20-digit
// counters, three 25-byte durations, their padding and separators.
const (
	reportChunk = 64 << 10
	maxRankRow  = 256
)

// writeRankRows writes the report's rank table, one row per rank, with
// the bytes fmt's "  %4d %16v %10d %6d %6d %6d %14v %14v\n" would print,
// appended into one buffer and written in chunks of at most reportChunk
// bytes: the table is most of a wide job's report.
func (c *Coordinator) writeRankRows(w io.Writer) {
	buf := make([]byte, 0, min(reportChunk, maxRankRow*len(c.ranks)))
	var num [20]byte
	for _, r := range c.ranks {
		if len(buf) > reportChunk-maxRankRow {
			w.Write(buf)
			buf = buf[:0]
		}
		st := r.Stats()
		buf = appendRight(append(buf, "  "...), strconv.AppendInt(num[:0], int64(r.ID()), 10), 4)
		buf = appendRight(append(buf, ' '), []byte(r.Clock().Now().String()), 16)
		buf = appendRight(append(buf, ' '), strconv.AppendUint(num[:0], st.MPICalls, 10), 10)
		buf = appendRight(append(buf, ' '), strconv.AppendUint(num[:0], st.MsgsSent, 10), 6)
		buf = appendRight(append(buf, ' '), strconv.AppendUint(num[:0], st.MsgsRecvd, 10), 6)
		buf = appendRight(append(buf, ' '), strconv.AppendUint(num[:0], st.Collectives, 10), 6)
		buf = appendRight(append(buf, ' '), []byte(st.ManaOverhead.String()), 14)
		buf = appendRight(append(buf, ' '), []byte(r.CkptOverhead().String()), 14)
		buf = append(buf, '\n')
	}
	w.Write(buf)
}

// appendRight appends cell right-aligned in width runes: fmt pads a
// value to its width by rune count, so a cell holding "µ" (two bytes)
// takes one byte more than its width.
func appendRight(buf, cell []byte, width int) []byte {
	for n := utf8.RuneCount(cell); n < width; n++ {
		buf = append(buf, ' ')
	}
	return append(buf, cell...)
}

// LookupStats aggregates the per-rank handle-virtualisation accounting
// in rank order — plain counter sums, so table iteration order never
// influences the (byte-identical) report.
func (c *Coordinator) LookupStats() rank.Stats {
	var total rank.Stats
	for _, r := range c.ranks {
		st := r.Stats()
		total.HandleLookups += st.HandleLookups
		total.CommLookups += st.CommLookups
		total.DatatypeLookups += st.DatatypeLookups
		total.RequestLookups += st.RequestLookups
		total.HandleWrites += st.HandleWrites
		total.LookupTime += st.LookupTime
		total.WriteTime += st.WriteTime
	}
	return total
}

// memorySummary returns rank 0's upper- and lower-half sizes. Region
// sizes do not depend on the owed state markers, so it reads them
// without writing those (rank.BytesOf).
func (c *Coordinator) memorySummary() [2]uint64 {
	r := c.ranks[0]
	return [2]uint64{r.BytesOf(memsim.UpperHalf), r.BytesOf(memsim.LowerHalf)}
}
