// Package kernelsim models the Linux-kernel-dependent costs that dominate
// MANA's runtime overhead in the paper.
//
// Section 3.3 of the paper identifies two sources of overhead:
//
//  1. The FS-register switch. Control transfer between the upper half
//     (application) and the lower half (MPI library) requires changing the
//     x86-64 FS segment register so thread-local storage resolves into the
//     correct half. On an unpatched kernel this requires a system call
//     (arch_prctl), costing on the order of a microsecond round trip; with
//     the FSGSBASE patch the unprivileged WRFSBASE instruction costs only a
//     few nanoseconds.
//  2. Handle virtualisation: a table lookup plus locking for every MPI
//     call that passes a communicator, datatype or request handle. The
//     virtual-to-real translation table itself lives in internal/virtid,
//     along with the calibrated costs of the two MANA designs it can be
//     priced as (the mutex baseline and the sharded lock-free-read
//     optimisation); the Kernel is constructed with the cost of the
//     selected design and charges it per translated handle in
//     MANAPerCallOverhead.
package kernelsim

import (
	"mana/internal/virtid"
	"mana/internal/vtime"
)

// Personality identifies the kernel variant a node runs.
type Personality int

const (
	// Unpatched is a stock Linux kernel in which changing the FS register
	// requires the arch_prctl system call.
	Unpatched Personality = iota
	// Patched is a kernel carrying the FSGSBASE patch (under review at the
	// time of the paper; merged in Linux 5.9), allowing user space to write
	// the FS register directly.
	Patched
)

// String returns a human-readable kernel personality name.
func (p Personality) String() string {
	switch p {
	case Unpatched:
		return "unpatched"
	case Patched:
		return "patched(FSGSBASE)"
	default:
		return "unknown"
	}
}

// Cost constants for the model. The absolute values are calibrated to
// produce the paper's observed shapes (roughly 2% worst-case application
// overhead on an unpatched kernel falling to about 0.6% on a patched one,
// and visible small-message bandwidth degradation only when unpatched).
const (
	// fsSwitchSyscallCost is the cost of one arch_prctl system call to set
	// the FS base register on an unpatched kernel.
	fsSwitchSyscallCost = 900 * vtime.Nanosecond
	// fsSwitchFSGSBASECost is the cost of a WRFSBASE instruction on a
	// patched kernel.
	fsSwitchFSGSBASECost = 6 * vtime.Nanosecond
	// recordMetadataCost is the cost of appending one entry to the
	// record-replay log for calls with persistent effects, or of recording
	// send/receive metadata for the draining algorithm.
	recordMetadataCost = 60 * vtime.Nanosecond
	// syscallBaseCost is the generic cost of an uninteresting system call
	// (used for sbrk/mmap accounting).
	syscallBaseCost = 250 * vtime.Nanosecond
	// checkpointSignalCost is the cost of delivering the coordinator's
	// checkpoint-intent signal to one rank: a signal delivery plus the
	// helper thread waking and inspecting rank state.
	checkpointSignalCost = 3 * vtime.Microsecond
	// drainProbeCost is one iteration of the draining algorithm's probe
	// loop: comparing per-peer send/receive counters and, if a message is
	// outstanding, posting the receive that buffers it (§3.1).
	drainProbeCost = 500 * vtime.Nanosecond
	// drainBufferPerByteCost is the per-byte cost of copying one in-flight
	// message into the checkpoint-time drain buffer.
	drainBufferPerByteCost = vtime.Duration(1) // ~1 GB/s memcpy into the buffer
	// restartReinitCost is the fixed cost, per rank, of discarding the old
	// lower half and bootstrapping a fresh one on restart: loading the MPI
	// and network libraries and re-running MPI_Init (§3.2).
	restartReinitCost = 180 * vtime.Millisecond
	// pageScanCost is the per-page cost of walking the upper half's page
	// tables at incremental-capture time to read the dirty bits (a
	// soft-dirty style scan touches one PTE per resident page).
	pageScanCost = 10 * vtime.Nanosecond
	// pageHashCost is the per-page cost of content-hashing one dirty
	// 4 KiB page for the incremental image's dedup check (~10 GB/s).
	pageHashCost = 400 * vtime.Nanosecond
)

// Kernel is the cost model for one node's kernel.
type Kernel struct {
	personality Personality
	// lookupCost and writeCost are the per-operation virtualisation
	// costs of the selected virtid table implementation: one lookup per
	// translated handle, one write per Register/Deregister.
	lookupCost vtime.Duration
	writeCost  vtime.Duration
}

// NewForTable returns a kernel model calibrated for the given virtid
// table implementation — the rank runtime passes whichever one the job
// selected.
func NewForTable(p Personality, impl virtid.Impl) *Kernel {
	return &Kernel{personality: p, lookupCost: impl.LookupCost(), writeCost: impl.WriteCost()}
}

// FSSwitchCost returns the cost of a single FS-register change. Every
// upper→lower or lower→upper control transfer in the split process performs
// one such change.
func (k *Kernel) FSSwitchCost() vtime.Duration {
	if k.personality == Patched {
		return fsSwitchFSGSBASECost
	}
	return fsSwitchSyscallCost
}

// RoundTripSwitchCost returns the cost of a full upper→lower→upper round
// trip (two FS-register changes), which is charged per MPI call made by the
// application under MANA.
func (k *Kernel) RoundTripSwitchCost() vtime.Duration {
	return 2 * k.FSSwitchCost()
}

// VirtualizationLookupOverhead returns the lookup component of a call's
// overhead: one calibrated translation per counted lookup. It is the
// exact term MANAPerCallOverhead charges, exposed so callers accounting
// the lookup share (Stats.LookupTime) cannot drift from the charge.
func (k *Kernel) VirtualizationLookupOverhead(lookups virtid.LookupCounts) vtime.Duration {
	return vtime.Duration(lookups.Total()) * k.lookupCost
}

// HandleWriteCost returns the cost of one virtualisation-table write
// (Register or Deregister), charged by the nonblocking post/wait paths
// that create and retire request handles.
func (k *Kernel) HandleWriteCost() vtime.Duration {
	return k.writeCost
}

// SyscallCost returns the generic system-call cost used for memory
// management operations in the simulated address space.
func (k *Kernel) SyscallCost() vtime.Duration {
	return syscallBaseCost
}

// MANAPerCallOverhead returns the total per-MPI-call overhead MANA
// imposes: the FS round trip, one calibrated table translation per
// handle lookup the call performed (communicators, datatypes, requests —
// counted per kind by the rank runtime, which does the real virtid
// lookups) and, when the call has persistent or in-flight effects, one
// metadata record.
func (k *Kernel) MANAPerCallOverhead(lookups virtid.LookupCounts, recorded bool) vtime.Duration {
	d := k.RoundTripSwitchCost() + k.VirtualizationLookupOverhead(lookups)
	if recorded {
		d += recordMetadataCost
	}
	return d
}

// CheckpointSignalCost returns the cost of delivering the coordinator's
// checkpoint-intent signal to this rank and waking its helper thread.
func (k *Kernel) CheckpointSignalCost() vtime.Duration {
	return checkpointSignalCost
}

// DrainProbeCost returns the cost of one iteration of the drain loop:
// comparing send/receive counters against one peer.
func (k *Kernel) DrainProbeCost() vtime.Duration {
	return drainProbeCost
}

// DrainBufferCost returns the cost of copying one in-flight message of
// the given size into the drain buffer. The probe that discovered the
// message is charged separately (one DrainProbeCost per peer).
func (k *Kernel) DrainBufferCost(bytes uint64) vtime.Duration {
	return vtime.Duration(bytes) * drainBufferPerByteCost
}

// RestartReinitCost returns the per-rank cost of rebuilding the lower
// half on restart (bootstrap load + fresh MPI_Init).
func (k *Kernel) RestartReinitCost() vtime.Duration {
	return restartReinitCost
}

// PageScanCost returns the per-page cost of reading dirty bits out of the
// page tables during an incremental capture. The scan visits every
// upper-half page (that part stays proportional to address-space size —
// it is the cheap part); copying and hashing are charged per dirty page.
func (k *Kernel) PageScanCost() vtime.Duration {
	return pageScanCost
}

// PageHashCost returns the per-dirty-page cost of content-hashing one
// 4 KiB page for the incremental image's dedup index.
func (k *Kernel) PageHashCost() vtime.Duration {
	return pageHashCost
}

// CompressCost returns the CPU cost of feeding bytes of delta payload
// through the checkpoint-time page compressor at nsPerByte (an lz4-class
// software compressor; the storage configuration carries the rate, so
// the same kernel can model faster or slower codecs).
func (k *Kernel) CompressCost(bytes uint64, nsPerByte float64) vtime.Duration {
	if nsPerByte <= 0 {
		return 0
	}
	return vtime.Duration(float64(bytes) * nsPerByte)
}
