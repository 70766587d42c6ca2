package rank

import (
	"bytes"
	"testing"

	"mana/internal/kernelsim"
	"mana/internal/scenario"
	"mana/internal/virtid"
	"mana/internal/vtime"
)

// mixedScript returns n ops, every fifth one a send (which leaves no
// marker) and the rest compute phases (which do).
func mixedScript(n int) []scenario.Op {
	script := computeScript(n)
	for i := 3; i < n; i += 5 {
		script[i] = scenario.Op{Kind: scenario.OpSend, Peer: 1, Bytes: 64}
	}
	return script
}

// drive executes the rank's next n ops.
func drive(r *Rank, n int) *Rank {
	net := testNet()
	for i := 0; i < n; i++ {
		r.Execute(net)
	}
	return r
}

// TestMemFingerprintMatchesFlush: MemFingerprint, which hashes the space
// with the owed markers laid over a copy of app.state, equals
// Mem().Fingerprint() taken after it, in every case flushMarkers
// distinguishes. And it writes nothing: the owed range, app.state's
// bytes and the space's unflushed fingerprint are as before, it
// allocates nothing once its scratch is grown (so no page was
// materialised), and the next incremental capture carries exactly the
// pages a twin rank that never called it carries (so no dirty bit was
// set).
func TestMemFingerprintMatchesFlush(t *testing.T) {
	newRank := func(script []scenario.Op) *Rank {
		return New(0, kernelsim.Patched, virtid.ImplSharded, script)
	}
	cases := []struct {
		name  string
		build func() *Rank
	}{
		{"nothing owed, new rank", func() *Rank { return newRank(computeScript(4)) }},
		{"nothing owed, flushed", func() *Rank {
			r := drive(newRank(mixedScript(40)), 30)
			r.Mem()
			return r
		}},
		{"only non-marking ops owed", func() *Rank {
			r := drive(newRank(append(computeScript(2),
				scenario.Op{Kind: scenario.OpSend, Peer: 1, Bytes: 64},
				scenario.Op{Kind: scenario.OpSbrk, Bytes: 8 << 10},
				scenario.Op{Kind: scenario.OpSend, Peer: 1, Bytes: 64},
				scenario.Op{Kind: scenario.OpCompute, Dur: vtime.Millisecond})), 2)
			r.Mem()
			return drive(r, 3)
		}},
		{"a run within a page", func() *Rank { return drive(newRank(mixedScript(100)), 60) }},
		{"a run crossing a page", func() *Rank {
			r := drive(newRank(mixedScript(900)), 500)
			r.Mem()
			return drive(r, 300)
		}},
		{"a wrap past markerSlots", func() *Rank {
			return drive(newRank(mixedScript(markerSlots+700)), markerSlots+650)
		}},
		{"owed after a capture", func() *Rank {
			r := drive(newRank(mixedScript(1500)), 700)
			r.CaptureImage(true)
			return drive(r, 500)
		}},
		{"owed after a restore", func() *Rank {
			r := drive(newRank(mixedScript(1500)), 300)
			img := r.CaptureImage(false)
			drive(r, 900)
			r.Restore(img)
			return drive(r, 400)
		}},
	}
	var scratch []byte
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, twin := tc.build(), tc.build()
			marked, pc, unflushed := r.marked, r.pc, r.mem.Fingerprint()
			state, err := r.mem.Read(stateRegion, 0, stateRegionSize)
			if err != nil {
				t.Fatal(err)
			}
			got := r.MemFingerprint(&scratch)
			if allocs := testing.AllocsPerRun(3, func() { r.MemFingerprint(&scratch) }); allocs != 0 {
				t.Errorf("MemFingerprint allocates %v times with a grown scratch, want 0", allocs)
			}
			if r.marked != marked || r.pc != pc {
				t.Errorf("owed range [%d, %d) became [%d, %d)", marked, pc, r.marked, r.pc)
			}
			if fp := r.mem.Fingerprint(); fp != unflushed {
				t.Errorf("unflushed fingerprint moved from %016x to %016x", unflushed, fp)
			}
			if after, _ := r.mem.Read(stateRegion, 0, stateRegionSize); !bytes.Equal(after, state) {
				t.Error("app.state's bytes changed")
			}
			if want := r.Mem().Fingerprint(); got != want {
				t.Errorf("MemFingerprint = %016x, Mem().Fingerprint() = %016x", got, want)
			}
			if want := twin.Mem().Fingerprint(); got != want {
				t.Errorf("MemFingerprint = %016x, the twin's flushed fingerprint %016x", got, want)
			}
			img, twinImg := r.CaptureImage(true), twin.CaptureImage(true)
			if img.Full != twinImg.Full || img.Bytes() != twinImg.Bytes() || img.Delta.DirtyPages != twinImg.Delta.DirtyPages {
				t.Errorf("next capture: full %v, %d B, %d dirty pages; the twin's: full %v, %d B, %d dirty pages",
					img.Full, img.Bytes(), img.Delta.DirtyPages, twinImg.Full, twinImg.Bytes(), twinImg.Delta.DirtyPages)
			}
		})
	}
}
