package storage

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mana/internal/memsim"
	"mana/internal/vtime"
)

// TestParseValidSpec round-trips a full storage document through
// Parse → Compile.
func TestParseValidSpec(t *testing.T) {
	doc := `{
		"burst_buffer": {"bandwidth": 8e9, "capacity": 1048576},
		"pfs": {"aggregate_bandwidth": 4e9},
		"compression": {"enabled": true, "cost_ns_per_byte": 0.5},
		"compressibility": {"heap": 0.9, "text": 0.05}
	}`
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	cfg, err := Compile(s)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if !cfg.Staging || cfg.BBBandwidth != 8e9 || cfg.BBCapacity != 1<<20 {
		t.Errorf("burst buffer compiled wrong: %+v", cfg)
	}
	if cfg.PFSBandwidth != 4e9 {
		t.Errorf("PFSBandwidth = %g, want 4e9", cfg.PFSBandwidth)
	}
	if !cfg.Compression || cfg.CompressCost != 0.5 {
		t.Errorf("compression compiled wrong: %+v", cfg)
	}
	if cfg.Ratio(memsim.KindHeap) != 0.9 || cfg.Ratio(memsim.KindText) != 0.05 {
		t.Errorf("spec ratios not applied: heap=%g text=%g", cfg.Ratio(memsim.KindHeap), cfg.Ratio(memsim.KindText))
	}
	// Classes the spec does not name fall through to the model defaults,
	// then to the fallback ratio.
	if cfg.Ratio(memsim.KindData) != defaultRatios[memsim.KindData] {
		t.Errorf("data ratio = %g, want model default %g", cfg.Ratio(memsim.KindData), defaultRatios[memsim.KindData])
	}
	if cfg.Ratio(memsim.KindPinned) != fallbackRatio {
		t.Errorf("pinned ratio = %g, want fallback %g", cfg.Ratio(memsim.KindPinned), fallbackRatio)
	}
}

// TestValidateRejections pins the named-field error style: every bad
// document names the exact offending field.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"unknown field", `{"surprise": 1}`, "surprise"},
		{"trailing data", `{} {}`, "trailing data"},
		{"negative pfs bandwidth", `{"pfs": {"aggregate_bandwidth": -1}}`,
			"storage: pfs.aggregate_bandwidth: must be non-negative"},
		{"negative bb bandwidth", `{"burst_buffer": {"bandwidth": -2, "capacity": 1}}`,
			"storage: burst_buffer.bandwidth: must be non-negative"},
		{"zero bb capacity", `{"burst_buffer": {"bandwidth": 1e9, "capacity": 0}}`,
			"storage: burst_buffer.capacity: must be positive, got 0"},
		{"negative compress cost", `{"compression": {"enabled": true, "cost_ns_per_byte": -0.1}}`,
			"storage: compression.cost_ns_per_byte: must be non-negative"},
		{"cost without enabled", `{"compression": {"enabled": false, "cost_ns_per_byte": 0.3}}`,
			"storage: compression.cost_ns_per_byte: set, but compression.enabled is false"},
		{"compressibility without compression", `{"compressibility": {"heap": 0.5}}`,
			"storage: compressibility: set, but compression is not enabled"},
		{"unknown region class", `{"compression": {"enabled": true}, "compressibility": {"quantum-foam": 0.5}}`,
			`storage: compressibility["quantum-foam"]: unknown region class`},
		{"ratio out of range", `{"compression": {"enabled": true}, "compressibility": {"heap": 1.5}}`,
			`storage: compressibility["heap"]: ratio must be in (0, 1], got 1.5`},
		{"zero ratio", `{"compression": {"enabled": true}, "compressibility": {"heap": 0}}`,
			`storage: compressibility["heap"]: ratio must be in (0, 1], got 0`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("Parse accepted %s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %q, want substring %q", err, tc.want)
			}
		})
	}
}

// TestValidateNamedGraftsPath checks the errf hook an enclosing scenario
// spec uses to prefix its own path.
func TestValidateNamedGraftsPath(t *testing.T) {
	s := Spec{BurstBuffer: &BurstBufferSpec{Capacity: 0}}
	var gotPath string
	err := s.ValidateNamed(func(path, format string, args ...any) error {
		gotPath = path
		return os.ErrInvalid
	})
	if err == nil || gotPath != "burst_buffer.capacity" {
		t.Errorf("path = %q (err %v), want burst_buffer.capacity", gotPath, err)
	}
}

// TestCompileNilIsDefault pins the default model: a nil spec compiles to
// direct writes against the default contended PFS.
func TestCompileNilIsDefault(t *testing.T) {
	cfg, err := Compile(nil)
	if err != nil {
		t.Fatalf("Compile(nil): %v", err)
	}
	if cfg.PFSBandwidth != DefaultPFSBandwidth || cfg.Staging || cfg.Compression {
		t.Errorf("default config has unexpected shape: %+v", cfg)
	}
}

// TestCompileDefaultCompressCost checks that an enabled compression block
// with no cost takes the model default.
func TestCompileDefaultCompressCost(t *testing.T) {
	cfg, err := Compile(&Spec{Compression: &CompressionSpec{Enabled: true}})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if cfg.CompressCost != DefaultCompressCost {
		t.Errorf("CompressCost = %g, want default %g", cfg.CompressCost, DefaultCompressCost)
	}
}

// TestPageStored pins the per-page model through CompressDelta on a
// one-page delta: zero pages collapse to the run-length header, others
// shrink by ratio with [1, raw] clamping.
func TestPageStored(t *testing.T) {
	cfg, err := Compile(&Spec{
		Compression:     &CompressionSpec{Enabled: true},
		Compressibility: map[string]float64{"text": 0.001, "heap": 1},
	})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	// stored compresses a delta carrying data as one whole page of its
	// own length.
	stored := func(kind memsim.Kind, data []byte) uint64 {
		d := memsim.Delta{Regions: []memsim.RegionDelta{{Kind: kind, Pages: []memsim.PageDelta{{Len: len(data), Data: data}}}}}
		s, raw := cfg.CompressDelta(&d)
		if raw != uint64(len(data)) {
			t.Errorf("a %d-byte page compresses %d raw bytes", len(data), raw)
		}
		return s
	}
	page := make([]byte, 4096)
	if got := stored(memsim.KindHeap, page); got != zeroPageStored {
		t.Errorf("zero page stored %d bytes, want %d", got, zeroPageStored)
	}
	if got := stored(memsim.KindHeap, page[:8]); got != 8 {
		t.Errorf("tiny zero page stored %d bytes, want its raw 8", got)
	}
	page[100] = 1
	// Ratio 1 stores raw bytes; the clamp keeps stored <= raw.
	if got := stored(memsim.KindHeap, page); got != 4096 {
		t.Errorf("incompressible page stored %d bytes, want 4096", got)
	}
	// Ratio 0.001 rounds to 4 bytes for a 4 KiB page.
	if got := stored(memsim.KindText, page); got != 4 {
		t.Errorf("text page stored %d bytes, want 4", got)
	}
	if got := stored(memsim.KindText, page[100:101]); got != 1 {
		t.Errorf("one-byte page stored %d bytes, want the 1-byte floor", got)
	}
	if got := stored(memsim.KindText, nil); got != 0 {
		t.Errorf("empty page stored %d bytes, want 0", got)
	}
	// A delta carries a page nothing ever wrote without its bytes; it must
	// store exactly as the same page of materialised zeros does.
	for _, n := range []int{4096, 8} {
		absent := memsim.Delta{Regions: []memsim.RegionDelta{{Kind: memsim.KindHeap, Pages: []memsim.PageDelta{{Len: n}}}}}
		zeros := memsim.Delta{Regions: []memsim.RegionDelta{{Kind: memsim.KindHeap, Pages: []memsim.PageDelta{{Len: n, Data: make([]byte, n)}}}}}
		as, ar := cfg.CompressDelta(&absent)
		zs, zr := cfg.CompressDelta(&zeros)
		if as != zs || ar != zr || ar != uint64(n) {
			t.Errorf("unmaterialised %d-byte zero page stores %d of %d bytes, materialised %d of %d", n, as, ar, zs, zr)
		}
	}
}

// TestShortPrefixPricesAsFullPage: a delta may carry a page as the prefix
// of it that was written (memsim keeps no buffer for the zeros behind it).
// Whatever the length of the prefix, the page stores and is charged
// exactly as the same page carried in full, per region class.
func TestShortPrefixPricesAsFullPage(t *testing.T) {
	cfg, err := Compile(&Spec{Compression: &CompressionSpec{Enabled: true}})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	delta := func(kind memsim.Kind, n int, data []byte) *memsim.Delta {
		return &memsim.Delta{Regions: []memsim.RegionDelta{{Kind: kind, Pages: []memsim.PageDelta{{Len: n, Data: data}}}}}
	}
	for _, kind := range []memsim.Kind{memsim.KindData, memsim.KindHeap, memsim.KindText, memsim.KindStack, memsim.KindAnonymous} {
		for _, n := range []int{4096, 1000} { // a whole page and a region's short last one
			full := make([]byte, n)
			for _, written := range []int{0, 8, 64} {
				clear(full)
				for i := 0; i < written; i++ {
					full[i] = byte(i + 1)
				}
				fs, fr := cfg.CompressDelta(delta(kind, n, full))
				for _, carried := range []int{written, 64, 128, n} {
					if carried < written {
						continue
					}
					ps, pr := cfg.CompressDelta(delta(kind, n, full[:carried]))
					if ps != fs || pr != fr || pr != uint64(n) {
						t.Errorf("%v page of %d bytes, %d written, carried as a %d-byte prefix: stored %d of %d, in full %d of %d",
							kind, n, written, carried, ps, pr, fs, fr)
					}
				}
			}
		}
	}
}

// TestPFSContention pins the FIFO queue model: back-to-back arrivals
// serialise, and the second writer's wait is exactly the first one's
// residual service time.
func TestPFSContention(t *testing.T) {
	p := NewPFS(1e9) // 1 GB/s => 1 byte/ns
	done, wait := p.Write(0, 1000)
	if wait != 0 || done != vtime.Time(1000) {
		t.Errorf("first write done@%v wait=%v, want done@1µs wait=0", done, wait)
	}
	done, wait = p.Write(0, 500)
	if wait != vtime.Duration(1000) || done != vtime.Time(1500) {
		t.Errorf("queued write done@%v wait=%v, want done@1.5µs wait=1µs", done, wait)
	}
	// An arrival after the queue clears sees no wait.
	done, wait = p.Write(vtime.Time(2000), 100)
	if wait != 0 || done != vtime.Time(2100) {
		t.Errorf("idle write done@%v wait=%v, want done@2.1µs wait=0", done, wait)
	}
	p.Reset()
	if _, wait = p.Write(0, 1); wait != 0 {
		t.Errorf("post-Reset write waited %v, want 0", wait)
	}
	free := NewPFS(0)
	if done, wait = free.Write(vtime.Time(7), 1<<30); done != vtime.Time(7) || wait != 0 {
		t.Errorf("free PFS done@%v wait=%v, want instantaneous", done, wait)
	}
}

// TestProfilesAreIsolated checks every built-in profile compiles and that
// Profile hands out specs no other call shares — a caller that edits the
// one it got must not change what the next run loads.
func TestProfilesAreIsolated(t *testing.T) {
	for _, name := range ProfileNames() {
		s, ok := Profile(name)
		if !ok {
			t.Fatalf("Profile(%q) missing", name)
		}
		if _, err := Compile(s); err != nil {
			t.Errorf("profile %q does not compile: %v", name, err)
		}
	}
	a, _ := Profile("staged")
	a.PFS.AggregateBandwidth = 1
	a.BurstBuffer.Capacity = 1
	b, _ := Profile("staged")
	if b.PFS.AggregateBandwidth == 1 || b.BurstBuffer.Capacity == 1 {
		t.Error("Profile returned a shared spec: mutations leaked between copies")
	}
	if _, ok := Profile("quantum"); ok {
		t.Error("Profile resolved an unknown name")
	}
}

// TestLoadResolvesProfileAndFile covers the -storage argument surface.
func TestLoadResolvesProfileAndFile(t *testing.T) {
	if s, err := Load("staged-compressed"); err != nil || s.Compression == nil || !s.Compression.Enabled {
		t.Errorf("Load(staged-compressed) = %+v, %v", s, err)
	}
	path := filepath.Join(t.TempDir(), "st.json")
	if err := os.WriteFile(path, []byte(`{"pfs": {"aggregate_bandwidth": 2e9}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load(path)
	if err != nil || s.PFS.AggregateBandwidth != 2e9 {
		t.Errorf("Load(file) = %+v, %v", s, err)
	}
	_, err = Load("no-such-profile")
	if err == nil || !strings.Contains(err.Error(), "neither a built-in profile") {
		t.Errorf("Load(bad) error = %v, want profile-listing error", err)
	}
}

// FuzzParse feeds arbitrary bytes to Parse, seeded with the built-in
// profiles as JSON documents. Parse returns a spec or an error and never
// panics, and an accepted spec compiles without a panic.
func FuzzParse(f *testing.F) {
	for _, name := range ProfileNames() {
		s, _ := Profile(name)
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := Parse(data); err != nil {
			f.Fatalf("profile %q as a document: %v", name, err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := Parse(data); err == nil {
			Compile(s) // an error is an answer; only a panic fails
		}
	})
}
