package rank

import (
	"testing"

	"mana/internal/kernelsim"
	"mana/internal/scenario"
	"mana/internal/virtid"
	"mana/internal/vtime"
)

// computeScript returns n compute phases of 1ms each.
func computeScript(n int) []scenario.Op {
	script := make([]scenario.Op, n)
	for i := range script {
		script[i] = scenario.Op{Kind: scenario.OpCompute, Dur: 1 * vtime.Millisecond}
	}
	return script
}

// TestIncrementalCaptureFallsBackToFull pins the chain-start rule: the
// first capture of a rank (no committed generation) is full even when
// incremental was requested, and so is the first capture after a restore.
func TestIncrementalCaptureFallsBackToFull(t *testing.T) {
	r := New(0, kernelsim.Patched, virtid.ImplSharded, computeScript(4))
	img := r.CaptureImage(true)
	if !img.Full {
		t.Fatal("first incremental capture must fall back to a full image")
	}
	r.Execute(testNet())
	delta := r.CaptureImage(true)
	if delta.Full {
		t.Fatal("second capture should have been incremental")
	}
	r.Restore(img)
	postRestore := r.CaptureImage(true)
	if !postRestore.Full {
		t.Error("first capture after restore must be full: restart starts a new chain")
	}
}

// TestIncrementalOverlayRestoresExactState is the rank-level tentpole
// property: restoring from base+delta chains reproduces exactly the state
// a full image would have restored — memory fingerprints included — and
// the delta is an order of magnitude smaller than the full image.
func TestIncrementalOverlayRestoresExactState(t *testing.T) {
	net := testNet()
	script := append(computeScript(6), scenario.Op{Kind: scenario.OpSbrk, Bytes: 128 << 10})
	script = append(script, computeScript(4)...)

	r := New(0, kernelsim.Unpatched, virtid.ImplSharded, script)
	for i := 0; i < 3; i++ {
		r.Execute(net)
	}
	base := r.CaptureImage(true) // full: chain start
	base.Seq = 1

	for i := 0; i < 4; i++ { // crosses the sbrk: layout changes mid-chain
		r.Execute(net)
	}
	d1 := r.CaptureImage(true)
	d1.Seq, d1.Base = 2, 1

	for i := 0; i < 2; i++ {
		r.Execute(net)
	}
	d2 := r.CaptureImage(true)
	d2.Seq, d2.Base = 3, 2

	// Reference: a rank driven identically but captured with full images.
	ref := New(0, kernelsim.Unpatched, virtid.ImplSharded, script)
	for i := 0; i < 9; i++ {
		ref.Execute(net)
	}
	want := ref.CaptureImage(false)

	got := Overlay(Overlay(base, d1), d2)
	if !got.Mem.Equal(want.Mem) {
		t.Fatal("overlaid memory differs from the full capture")
	}
	if got.Mem.Fingerprint() != want.Mem.Fingerprint() {
		t.Error("overlaid fingerprint differs from the full capture")
	}
	if got.PC != want.PC || got.Clock != want.Clock {
		t.Errorf("overlay pc/clock = %d/%v, want %d/%v", got.PC, got.Clock, want.PC, want.Clock)
	}

	// Restoring the materialised chain must resume bit-identically.
	r.Execute(net)
	r.Restore(got)
	if snap := r.Mem().SnapshotUpperHalf(); !snap.Equal(want.Mem) {
		t.Error("restored upper half differs from the reference image")
	}
	if r.PC() != want.PC || r.Clock().Now() != want.Clock {
		t.Errorf("restored pc/clock = %d/%v, want %d/%v", r.PC(), r.Clock().Now(), want.PC, want.Clock)
	}

	// The deltas only carry touched pages: an order of magnitude below
	// the full image even in this tiny script.
	if d2.Bytes()*10 > want.Bytes() {
		t.Errorf("delta image %d bytes, full image %d bytes; want >=10x reduction", d2.Bytes(), want.Bytes())
	}
}

// TestRestoreFromDeltaPanics pins the misuse guard: a delta image must be
// materialised before FromImage can bring a rank up from it.
func TestRestoreFromDeltaPanics(t *testing.T) {
	r := New(0, kernelsim.Patched, virtid.ImplSharded, computeScript(2))
	r.CaptureImage(true) // full
	r.Execute(testNet())
	delta := r.CaptureImage(true)
	defer func() {
		if recover() == nil {
			t.Error("FromImage of a delta image did not panic")
		}
	}()
	FromImage(new(Rank), &delta, r.Kernel(), r.script, nil, 0)
}

// TestOverlayChainValidation pins the chain bookkeeping panics.
func TestOverlayChainValidation(t *testing.T) {
	r := New(0, kernelsim.Patched, virtid.ImplSharded, computeScript(4))
	base := r.CaptureImage(true)
	base.Seq = 1
	r.Execute(testNet())
	d := r.CaptureImage(true)
	d.Seq, d.Base = 2, 1
	r.Execute(testNet())
	skipped := r.CaptureImage(true)
	skipped.Seq, skipped.Base = 3, 2
	defer func() {
		if recover() == nil {
			t.Error("Overlay skipping a chain link did not panic")
		}
	}()
	Overlay(base, skipped) // applies to seq 2, not the seq-1 base
}

// TestIncrementalImageCarriesSmallState verifies every delta image still
// carries the full small state (stats, virt table, pending requests), so
// the newest chain link alone decides the restored rank's bookkeeping.
func TestIncrementalImageCarriesSmallState(t *testing.T) {
	net := testNet()
	r := New(0, kernelsim.Patched, virtid.ImplSharded, []scenario.Op{
		{Kind: scenario.OpIsend, Peer: 1, Bytes: 64, Tag: 0},
		{Kind: scenario.OpCompute, Dur: 1 * vtime.Millisecond},
		{Kind: scenario.OpWait},
	})
	r.CaptureImage(true) // full base
	r.Execute(net)       // isend: request now live
	d := r.CaptureImage(true)
	if d.Full {
		t.Fatal("expected a delta image")
	}
	if len(d.PendingReqs) != 1 {
		t.Errorf("delta image pending requests = %d, want 1", len(d.PendingReqs))
	}
	if n := liveEntries(d.Virt); n != 3 { // comm + datatype + live request
		t.Errorf("delta image virt live entries = %d, want 3", n)
	}
	if d.Stats.MsgsSent != 1 {
		t.Errorf("delta image stats MsgsSent = %d, want 1", d.Stats.MsgsSent)
	}
}
