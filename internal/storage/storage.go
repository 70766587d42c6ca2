// Package storage declares the two-tier checkpoint I/O pipeline of MANA's
// NERSC production deployment (arXiv:2103.08546) — per-node burst buffers
// of bounded capacity in front of a shared parallel filesystem — and
// models two of its parts: the PFS, whose aggregate bandwidth every
// concurrent writer contends for (commit stragglers, §3.4, emerge from
// the queueing), and optional per-page compression of incremental delta
// payloads, each dirty page shrunk by a per-region-class ratio (all-zero
// pages collapse to a header) at a kernel CPU cost per input byte. The
// staging, drains and generations run in internal/ckptstore.
//
// Configuration arrives either as a `storage` block inside a scenario
// spec or as a standalone JSON document (or built-in profile name) via
// the -storage CLI flag. Validation follows the scenario engine's
// named-field error style: every error names the exact offending field,
// e.g. `storage: burst_buffer.capacity: must be positive, got 0`.
package storage

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"slices"
	"sort"
	"strings"

	"mana/internal/memsim"
	"mana/internal/vtime"
)

// Default model parameters: a flat-fabric 8-node job sharing a 16 GB/s
// parallel filesystem (2 GB/s per rank when all eight write at once, so
// the default job is bandwidth-contended), 8 GB/s node-local burst
// buffers of 256 MiB, and an lz4-class compressor costing 0.3 ns of CPU
// per input byte (~3.3 GB/s).
const (
	DefaultPFSBandwidth = 16e9
	DefaultBBBandwidth  = 8e9
	DefaultBBCapacity   = 256 << 20
	DefaultCompressCost = 0.3
	// zeroPageStored is the stored size of an all-zero page: a run-length
	// header, independent of the configured ratios.
	zeroPageStored = 16
)

// BurstBufferSpec declares the per-node staging tier.
type BurstBufferSpec struct {
	// Bandwidth is the node-local staging bandwidth in bytes/second.
	// Zero models free (instantaneous) staging; negative is rejected.
	Bandwidth float64 `json:"bandwidth"`
	// Capacity bounds the staged-but-not-yet-drained bytes one node's
	// buffer holds; payload beyond the free capacity is written through
	// synchronously to the contended PFS.
	Capacity uint64 `json:"capacity"`
}

// PFSSpec declares the shared parallel-filesystem tier.
type PFSSpec struct {
	// AggregateBandwidth is the filesystem's total bandwidth in
	// bytes/second, shared by every concurrent writer: requests queue in
	// virtual time and stragglers emerge from the queueing. Zero models
	// free I/O; negative is rejected.
	AggregateBandwidth float64 `json:"aggregate_bandwidth"`
}

// CompressionSpec declares per-page delta-payload compression.
type CompressionSpec struct {
	Enabled bool `json:"enabled"`
	// CostNsPerByte is the kernel CPU cost per input byte fed to the
	// compressor (0 = DefaultCompressCost).
	CostNsPerByte float64 `json:"cost_ns_per_byte,omitempty"`
}

// Spec is the declarative storage configuration as it appears in JSON —
// a scenario spec's `storage` block or a standalone -storage document.
// Absent blocks take the model defaults: no staging, a contended PFS at
// DefaultPFSBandwidth, no compression.
type Spec struct {
	BurstBuffer *BurstBufferSpec `json:"burst_buffer,omitempty"`
	PFS         *PFSSpec         `json:"pfs,omitempty"`
	Compression *CompressionSpec `json:"compression,omitempty"`
	// Compressibility maps region-class names (memsim kind spellings:
	// "text", "data", "heap", "stack", ...) to post-compression size
	// ratios in (0, 1]. Classes not named take the model defaults.
	Compressibility map[string]float64 `json:"compressibility,omitempty"`
}

// Parse decodes a standalone storage document, rejecting unknown fields
// and trailing garbage, then validates it.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("storage: trailing data after storage document")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the spec standalone; errors name the offending field as
// `storage: <field>: <problem>`.
func (s *Spec) Validate() error {
	return s.ValidateNamed(func(path, format string, args ...any) error {
		return fmt.Errorf("storage: %s: %s", path, fmt.Sprintf(format, args...))
	})
}

// ValidateNamed checks the spec, constructing errors through errf so an
// enclosing document (a scenario spec's `storage` block) can graft its
// own path prefix. errf receives the field path relative to the spec
// root.
func (s *Spec) ValidateNamed(errf func(path, format string, args ...any) error) error {
	if s.PFS != nil && s.PFS.AggregateBandwidth < 0 {
		return errf("pfs.aggregate_bandwidth", "must be non-negative (0 models free I/O), got %g", s.PFS.AggregateBandwidth)
	}
	if bb := s.BurstBuffer; bb != nil {
		if bb.Bandwidth < 0 {
			return errf("burst_buffer.bandwidth", "must be non-negative (0 models free staging), got %g", bb.Bandwidth)
		}
		if bb.Capacity == 0 {
			return errf("burst_buffer.capacity", "must be positive, got 0 (a zero-capacity buffer stages nothing)")
		}
	}
	if cp := s.Compression; cp != nil {
		if cp.CostNsPerByte < 0 {
			return errf("compression.cost_ns_per_byte", "must be non-negative, got %g", cp.CostNsPerByte)
		}
		if !cp.Enabled && cp.CostNsPerByte != 0 {
			return errf("compression.cost_ns_per_byte", "set, but compression.enabled is false")
		}
	}
	if len(s.Compressibility) > 0 {
		if s.Compression == nil || !s.Compression.Enabled {
			return errf("compressibility", "set, but compression is not enabled")
		}
		// Deterministic error selection: report the lexically first bad key.
		keys := make([]string, 0, len(s.Compressibility))
		for k := range s.Compressibility {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if _, ok := memsim.ParseKind(k); !ok {
				return errf(fmt.Sprintf("compressibility[%q]", k),
					"unknown region class (want one of %s)", strings.Join(memsim.KindNames(), ", "))
			}
			r := s.Compressibility[k]
			if r <= 0 || r > 1 {
				return errf(fmt.Sprintf("compressibility[%q]", k), "ratio must be in (0, 1], got %g", r)
			}
		}
	}
	return nil
}

// Config is the compiled runtime storage model the coordinator and the
// generation store (internal/ckptstore) consume.
type Config struct {
	// PFSBandwidth is the contended aggregate parallel-filesystem
	// bandwidth (<= 0 models free I/O).
	PFSBandwidth float64
	// Staging enables the burst-buffer tier; BBBandwidth and BBCapacity
	// parameterise it.
	Staging     bool
	BBBandwidth float64
	BBCapacity  uint64
	// Compression enables per-page delta-payload compression at
	// CompressCost ns of kernel CPU per input byte, shrinking each page
	// by the Ratios entry for its region class.
	Compression  bool
	CompressCost float64
	Ratios       map[memsim.Kind]float64
}

// defaultRatios is the per-region-class compressibility model: code and
// rarely-rewritten data compress well, hot heap state poorly.
var defaultRatios = map[memsim.Kind]float64{
	memsim.KindText:  0.10,
	memsim.KindData:  0.40,
	memsim.KindHeap:  0.85,
	memsim.KindStack: 0.50,
}

// fallbackRatio covers region classes neither the spec nor defaultRatios
// name.
const fallbackRatio = 0.70

// DefaultConfig returns the compiled default model: direct writes to a
// contended PFS at DefaultPFSBandwidth, no staging, no compression.
func DefaultConfig() Config {
	return Config{PFSBandwidth: DefaultPFSBandwidth}
}

// Compile resolves the spec (nil = all defaults) into a runtime Config.
func Compile(s *Spec) (Config, error) {
	cfg := DefaultConfig()
	if s == nil {
		return cfg, nil
	}
	if err := s.Validate(); err != nil {
		return Config{}, err
	}
	if s.PFS != nil {
		cfg.PFSBandwidth = s.PFS.AggregateBandwidth
	}
	if bb := s.BurstBuffer; bb != nil {
		cfg.Staging = true
		cfg.BBBandwidth = bb.Bandwidth
		cfg.BBCapacity = bb.Capacity
	}
	if cp := s.Compression; cp != nil && cp.Enabled {
		cfg.Compression = true
		cfg.CompressCost = cp.CostNsPerByte
		if cfg.CompressCost == 0 {
			cfg.CompressCost = DefaultCompressCost
		}
		cfg.Ratios = make(map[memsim.Kind]float64, len(s.Compressibility))
		for name, r := range s.Compressibility {
			k, _ := memsim.ParseKind(name)
			cfg.Ratios[k] = r
		}
	}
	return cfg, nil
}

// Ratio returns the compressed-size ratio for one region class.
func (c *Config) Ratio(kind memsim.Kind) float64 {
	if r, ok := c.Ratios[kind]; ok {
		return r
	}
	if r, ok := defaultRatios[kind]; ok {
		return r
	}
	return fallbackRatio
}

// pageStored returns the stored size of one delta page of raw bytes,
// carried as its written prefix, after compression. The bytes past the
// prefix are zeros, so the prefix alone decides whether the page is a
// zero page, which collapses to a run-length header (or stays as it is,
// when shorter than one); anything else shrinks by its region class's
// ratio, never below one byte and never above raw.
func (c *Config) pageStored(kind memsim.Kind, prefix []byte, raw uint64) uint64 {
	zero := true
	for _, b := range prefix {
		if b != 0 {
			zero = false
			break
		}
	}
	if zero {
		return min(raw, zeroPageStored)
	}
	stored := uint64(float64(raw)*c.Ratio(kind) + 0.5)
	if stored < 1 {
		stored = 1
	}
	if stored > raw {
		stored = raw
	}
	return stored
}

// CompressDelta runs the page compressor over a delta payload, returning
// the stored (compressed) page bytes and the raw page bytes consumed.
// Iteration is regions by ascending address, pages by ascending index —
// the delta's construction order — so the result is deterministic. A page
// counts for its Len bytes however short the prefix the delta carries of
// it (memsim.PageDelta.Data): the rest is zeros nothing ever wrote, and a
// page carried with no prefix at all is a zero page without being scanned.
func (c *Config) CompressDelta(d *memsim.Delta) (stored, raw uint64) {
	for i := range d.Regions {
		rd := &d.Regions[i]
		for pi := range rd.Pages {
			p := &rd.Pages[pi]
			stored += c.pageStored(rd.Kind, p.Data, uint64(p.Len))
			raw += uint64(p.Len)
		}
	}
	return stored, raw
}

// PFS is the contended shared-filesystem server: a single FIFO pipe of
// aggregate bandwidth. Requests are served in submission order; a request
// arriving while the pipe is busy waits for the in-flight transfers to
// finish, which is where checkpoint stragglers now come from.
type PFS struct {
	bandwidth float64
	busyUntil vtime.Time
}

// NewPFS returns a server of the given aggregate bandwidth (<= 0 models
// free I/O: every write completes at its arrival time).
func NewPFS(bandwidth float64) PFS {
	return PFS{bandwidth: bandwidth}
}

// Write queues one transfer arriving at arrive, returning its completion
// time and how long it waited behind earlier transfers.
func (p *PFS) Write(arrive vtime.Time, bytes uint64) (done vtime.Time, wait vtime.Duration) {
	if p.bandwidth <= 0 {
		return arrive, 0
	}
	start := arrive
	if p.busyUntil > start {
		start = p.busyUntil
		wait = start.Sub(arrive)
	}
	done = start.Add(vtime.DurationOf(float64(bytes) / p.bandwidth))
	p.busyUntil = done
	return done, wait
}

// Reset clears the queue state — the simulated filesystem is idle again.
// Restart uses it: transfers of the abandoned timeline die with it.
func (p *PFS) Reset() { p.busyUntil = 0 }

// profiles returns the built-in named configurations for the -storage
// flag, built afresh on every call so no caller shares one with another.
func profiles() map[string]*Spec {
	return map[string]*Spec{
		"direct": {
			PFS: &PFSSpec{AggregateBandwidth: DefaultPFSBandwidth},
		},
		"staged": {
			PFS:         &PFSSpec{AggregateBandwidth: DefaultPFSBandwidth},
			BurstBuffer: &BurstBufferSpec{Bandwidth: DefaultBBBandwidth, Capacity: DefaultBBCapacity},
		},
		"staged-compressed": {
			PFS:         &PFSSpec{AggregateBandwidth: DefaultPFSBandwidth},
			BurstBuffer: &BurstBufferSpec{Bandwidth: DefaultBBBandwidth, Capacity: DefaultBBCapacity},
			Compression: &CompressionSpec{Enabled: true, CostNsPerByte: DefaultCompressCost},
		},
	}
}

// Profile returns the named built-in spec. It is the caller's own: no
// other call returns the same pointers.
func Profile(name string) (*Spec, bool) {
	s, ok := profiles()[name]
	return s, ok
}

// Load resolves a -storage argument: a built-in profile name, or the
// path of a standalone JSON storage document.
func Load(name string) (*Spec, error) {
	if s, ok := Profile(name); ok {
		return s, nil
	}
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, fmt.Errorf("storage: %q is neither a built-in profile (%s) nor a readable file: %v",
			name, strings.Join(ProfileNames(), ", "), err)
	}
	return Parse(data)
}

// ProfileNames returns the built-in profile names, sorted, for error
// messages and usage text.
func ProfileNames() []string {
	return slices.Sorted(maps.Keys(profiles()))
}
