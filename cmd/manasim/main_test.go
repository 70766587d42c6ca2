package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mana/internal/coordinator"
	"mana/internal/storage"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// runScenarioString captures runScenario's streamed output as a string,
// the shape most tests compare.
func runScenarioString(cfg coordinator.Config) (string, error) {
	var buf bytes.Buffer
	if err := runScenario(cfg, &buf); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// TestDefaultScenarioReportGolden pins the default scenario's report
// bytes: any change to the scheduler, the cost model or the report
// format shows up as a diff against testdata/default_report.golden.
// Regenerate deliberately with:
//
//	go test ./cmd/manasim -run TestDefaultScenarioReportGolden -update
func TestDefaultScenarioReportGolden(t *testing.T) {
	cfg, err := buildConfig(defaultScenario())
	if err != nil {
		t.Fatalf("buildConfig: %v", err)
	}
	got, err := runScenarioString(cfg)
	if err != nil {
		t.Fatalf("runScenario: %v", err)
	}
	golden := filepath.Join("testdata", "default_report.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("default-scenario report deviates from golden file.\n--- got\n%s\n--- want\n%s", got, want)
	}
}

// TestIncrementalScenarioReportGolden pins the -incremental scenario the
// same way: the default workload checkpointed with delta images (full
// every 4th), failure and restart included. Regenerate deliberately with:
//
//	go test ./cmd/manasim -run TestIncrementalScenarioReportGolden -update
func TestIncrementalScenarioReportGolden(t *testing.T) {
	s := defaultScenario()
	s.Incremental = true
	cfg, err := buildConfig(s)
	if err != nil {
		t.Fatalf("buildConfig: %v", err)
	}
	got, err := runScenarioString(cfg)
	if err != nil {
		t.Fatalf("runScenario: %v", err)
	}
	if !strings.Contains(got, "incremental=true") {
		t.Errorf("incremental report does not surface its mode:\n%s", got)
	}
	golden := filepath.Join("testdata", "incremental_report.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("incremental-scenario report deviates from golden file.\n--- got\n%s\n--- want\n%s", got, want)
	}
}

// TestOverlapScenarioReportGolden pins the -workload overlap scenario:
// staggered sub-communicator collectives, a checkpoint requested while
// at least two of them are in flight (so the topological-sort drain
// planner orders a real dependency graph), failure and restart.
// Regenerate deliberately with:
//
//	go test ./cmd/manasim -run TestOverlapScenarioReportGolden -update
func TestOverlapScenarioReportGolden(t *testing.T) {
	s := defaultScenario()
	s.Workload = "overlap"
	cfg, err := buildConfig(s)
	if err != nil {
		t.Fatalf("buildConfig: %v", err)
	}
	got, err := runScenarioString(cfg)
	if err != nil {
		t.Fatalf("runScenario: %v", err)
	}
	// The acceptance bar for the drain planner: at least one checkpoint
	// drained >= 2 simultaneously in-flight collectives.
	if !regexpMustFind(t, got, `coll-drain: planned=([2-9]|\d\d+) overlap-width=([2-9]|\d\d+)`) {
		t.Errorf("no checkpoint drained >= 2 overlapping collectives:\n%s", got)
	}
	if !strings.Contains(got, "comm-splits executed=16") {
		t.Errorf("overlap report missing comm-split accounting:\n%s", got)
	}
	golden := filepath.Join("testdata", "overlap_report.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("overlap-scenario report deviates from golden file.\n--- got\n%s\n--- want\n%s", got, want)
	}
}

// regexpMustFind reports whether the pattern matches, failing the test
// on a malformed pattern.
func regexpMustFind(t *testing.T, s, pattern string) bool {
	t.Helper()
	re, err := regexp.Compile(pattern)
	if err != nil {
		t.Fatalf("bad pattern %q: %v", pattern, err)
	}
	return re.MatchString(s)
}

// TestScenarioByteIdenticalAcrossRuns is the CLI-level determinism
// check: the same scenario must render the same bytes every time.
func TestScenarioByteIdenticalAcrossRuns(t *testing.T) {
	s := defaultScenario()
	s.Ranks = 4
	s.Steps = 10
	cfg, err := buildConfig(s)
	if err != nil {
		t.Fatalf("buildConfig: %v", err)
	}
	r1, err := runScenarioString(cfg)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	cfg, err = buildConfig(s)
	if err != nil {
		t.Fatalf("buildConfig: %v", err)
	}
	r2, err := runScenarioString(cfg)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if r1 != r2 {
		t.Errorf("reports differ between identical runs:\n--- run 1\n%s\n--- run 2\n%s", r1, r2)
	}
}

// TestKernelFlagChangesReport exercises the patched-kernel path through
// the CLI plumbing.
func TestKernelFlagChangesReport(t *testing.T) {
	s := defaultScenario()
	s.Ranks = 4
	s.Steps = 6
	s.NoFail = true
	cfg, err := buildConfig(s)
	if err != nil {
		t.Fatalf("buildConfig: %v", err)
	}
	unpatched, err := runScenarioString(cfg)
	if err != nil {
		t.Fatalf("unpatched run: %v", err)
	}
	s.Kernel = "patched"
	cfg, err = buildConfig(s)
	if err != nil {
		t.Fatalf("buildConfig: %v", err)
	}
	patched, err := runScenarioString(cfg)
	if err != nil {
		t.Fatalf("patched run: %v", err)
	}
	if unpatched == patched {
		t.Error("kernel personality had no effect on the report")
	}
}

// TestVirtidFlagChangesReport exercises the -virtid plumbing: the mutex
// baseline charges a higher per-lookup cost, so the report must differ
// from the sharded default.
func TestVirtidFlagChangesReport(t *testing.T) {
	s := defaultScenario()
	s.Ranks = 4
	s.Steps = 6
	s.NoFail = true
	cfg, err := buildConfig(s)
	if err != nil {
		t.Fatalf("buildConfig: %v", err)
	}
	sharded, err := runScenarioString(cfg)
	if err != nil {
		t.Fatalf("sharded run: %v", err)
	}
	s.Virtid = "mutex"
	cfg, err = buildConfig(s)
	if err != nil {
		t.Fatalf("buildConfig: %v", err)
	}
	mutex, err := runScenarioString(cfg)
	if err != nil {
		t.Fatalf("mutex run: %v", err)
	}
	if sharded == mutex {
		t.Error("virtid implementation had no effect on the report")
	}
	for report, want := range map[string]string{sharded: "impl=sharded", mutex: "impl=mutex"} {
		if !strings.Contains(report, want) {
			t.Errorf("report does not name its virtid implementation (%s)", want)
		}
	}
}

// TestBuildConfigValidation covers the error paths that used to live in
// main's flag handling.
func TestBuildConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*scenarioOpts)
	}{
		{"zero ranks", func(s *scenarioOpts) { s.Ranks = 0 }},
		{"negative steps", func(s *scenarioOpts) { s.Steps = -1 }},
		{"unknown kernel", func(s *scenarioOpts) { s.Kernel = "plan9" }},
		{"unknown virtid", func(s *scenarioOpts) { s.Virtid = "bogolock" }},
		{"unknown workload", func(s *scenarioOpts) { s.Workload = "spiral" }},
		{"tiny overlap group", func(s *scenarioOpts) { s.Workload = "overlap"; s.GroupSize = 1; s.GroupSet = true }},
		{"negative full-every", func(s *scenarioOpts) { s.FullEvery = -1 }},
		{"group without splits", func(s *scenarioOpts) { s.GroupSize = 4; s.GroupSet = true }},
		{"group on splitless spec", func(s *scenarioOpts) { s.Spec = "stencil"; s.SpecSet = true; s.GroupSize = 4; s.GroupSet = true }},
		{"spec and workload", func(s *scenarioOpts) {
			s.Spec = "overlap"
			s.SpecSet = true
			s.Workload = "overlap"
			s.WorkloadSet = true
		}},
		{"unknown spec", func(s *scenarioOpts) { s.Spec = "no-such-spec.json"; s.SpecSet = true }},
		{"trace and spec", func(s *scenarioOpts) { s.Trace = "x.trace"; s.TraceSet = true; s.Spec = "stencil"; s.SpecSet = true }},
		{"trace and workload", func(s *scenarioOpts) { s.Trace = "x.trace"; s.TraceSet = true; s.WorkloadSet = true }},
		{"trace and group", func(s *scenarioOpts) { s.Trace = "x.trace"; s.TraceSet = true; s.GroupSet = true }},
		{"trace and ranks", func(s *scenarioOpts) { s.Trace = "x.trace"; s.TraceSet = true; s.RanksSet = true }},
		{"trace and steps", func(s *scenarioOpts) { s.Trace = "x.trace"; s.TraceSet = true; s.StepsSet = true }},
		{"missing trace file", func(s *scenarioOpts) { s.Trace = "testdata/no-such.trace"; s.TraceSet = true }},
		{"negative islands", func(s *scenarioOpts) { s.Islands = -1; s.IslandsSet = true }},
		{"zero workers", func(s *scenarioOpts) { s.Workers = 0 }},
		{"workers without islands", func(s *scenarioOpts) { s.Workers = 4 }},
		{"compress without incremental", func(s *scenarioOpts) { s.Compress = true; s.CompressSet = true }},
		{"compress-cost without compress", func(s *scenarioOpts) { s.CompressCost = 0.5; s.CompressCostSet = true }},
		{"unknown storage profile", func(s *scenarioOpts) { s.Storage = "quantum"; s.StorageSet = true }},
		{"compressed profile without incremental", func(s *scenarioOpts) { s.Storage = "staged-compressed"; s.StorageSet = true }},
		{"legacy straggler with storage", func(s *scenarioOpts) {
			s.LegacyStraggler = true
			s.LegacyStragglerSet = true
			s.Storage = "staged"
			s.StorageSet = true
		}},
		{"legacy straggler with storage flag", func(s *scenarioOpts) {
			s.LegacyStraggler = true
			s.LegacyStragglerSet = true
			s.BBCapacity = 1 << 20
			s.BBCapacitySet = true
		}},
		{"sweep-storage without sweep", func(s *scenarioOpts) { s.SweepStorage = "direct,staged" }},
		{"drain-hop plan without staging", func(s *scenarioOpts) {
			s.Faults = filepath.Join("testdata", "faults", "staging", "drain-torn-fallback.json")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := defaultScenario()
			tc.mut(&s)
			if _, err := buildConfig(s); err == nil {
				t.Errorf("buildConfig accepted invalid scenario %+v", s)
			}
		})
	}
}

// TestLegacyStragglerReportGolden pins the -legacy-straggler escape
// hatch to the retired flat-bandwidth model's exact bytes: the golden is
// a frozen copy of the pre-pipeline default report and is deliberately
// NOT regenerable with -update — if this test fails, the escape hatch
// broke its compatibility promise.
func TestLegacyStragglerReportGolden(t *testing.T) {
	s := defaultScenario()
	s.LegacyStraggler = true
	s.LegacyStragglerSet = true
	cfg, err := buildConfig(s)
	if err != nil {
		t.Fatalf("buildConfig: %v", err)
	}
	got, err := runScenarioString(cfg)
	if err != nil {
		t.Fatalf("runScenario: %v", err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "legacy_straggler_report.golden"))
	if err != nil {
		t.Fatalf("read frozen golden: %v", err)
	}
	if got != string(want) {
		t.Errorf("-legacy-straggler deviates from the retired model's frozen bytes.\n--- got\n%s\n--- want\n%s", got, want)
	}
}

// TestStorageFlagResolution covers the positive half of the storage flag
// surface: profiles resolve, individual flags overlay them, and a lone
// burst-buffer flag completes from the model defaults.
func TestStorageFlagResolution(t *testing.T) {
	s := defaultScenario()
	s.Storage = "staged"
	s.StorageSet = true
	cfg, err := buildConfig(s)
	if err != nil {
		t.Fatalf("buildConfig(-storage staged): %v", err)
	}
	if !cfg.Storage.Staging || cfg.Storage.BBCapacity != storage.DefaultBBCapacity {
		t.Errorf("-storage staged compiled wrong: %+v", cfg.Storage)
	}

	s.PFSBandwidth = 2e9
	s.PFSBandwidthSet = true
	cfg, err = buildConfig(s)
	if err != nil {
		t.Fatalf("buildConfig(-storage staged -pfs-bandwidth): %v", err)
	}
	if cfg.Storage.PFSBandwidth != 2e9 || !cfg.Storage.Staging {
		t.Errorf("-pfs-bandwidth did not overlay the profile: %+v", cfg.Storage)
	}

	s2 := defaultScenario()
	s2.BBCapacity = 1 << 20
	s2.BBCapacitySet = true
	cfg, err = buildConfig(s2)
	if err != nil {
		t.Fatalf("buildConfig(-bb-capacity alone): %v", err)
	}
	if !cfg.Storage.Staging || cfg.Storage.BBCapacity != 1<<20 || cfg.Storage.BBBandwidth != storage.DefaultBBBandwidth {
		t.Errorf("lone -bb-capacity did not complete a burst buffer from defaults: %+v", cfg.Storage)
	}
}

// TestSpecStorageBlock covers a spec-declared storage block: it
// resolves, individual flags may not silently reshape it, and -storage
// overrides it whole.
func TestSpecStorageBlock(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "st.json")
	body := `{
		"name": "st",
		"phases": [{"name": "main", "steps": 2, "ops": [{"op": "compute", "mean": "1ms"}]}],
		"storage": {"burst_buffer": {"bandwidth": 4e9, "capacity": 1048576}}
	}`
	if err := os.WriteFile(spec, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	s := defaultScenario()
	s.Spec = spec
	s.SpecSet = true
	cfg, err := buildConfig(s)
	if err != nil {
		t.Fatalf("buildConfig(spec block): %v", err)
	}
	if !cfg.Storage.Staging || cfg.Storage.BBBandwidth != 4e9 || cfg.Storage.BBCapacity != 1<<20 {
		t.Errorf("spec storage block not applied: %+v", cfg.Storage)
	}

	s.BBCapacity = 2 << 20
	s.BBCapacitySet = true
	_, err = buildConfig(s)
	if err == nil || !strings.Contains(err.Error(), "-bb-capacity has no effect on spec") {
		t.Errorf("flag alongside spec block: err = %v, want named rejection", err)
	}

	s.BBCapacitySet = false
	s.Storage = "direct"
	s.StorageSet = true
	cfg, err = buildConfig(s)
	if err != nil {
		t.Fatalf("buildConfig(-storage overrides block): %v", err)
	}
	if cfg.Storage.Staging {
		t.Errorf("-storage direct did not override the spec block: %+v", cfg.Storage)
	}
}

// TestIslandFlagsAreReportNeutral is the CLI-level statement of the
// sharded scheduler's contract: -islands and -workers are pure
// performance knobs, so every setting must reproduce the serial
// report byte for byte.
func TestIslandFlagsAreReportNeutral(t *testing.T) {
	baseCfg, err := buildConfig(defaultScenario())
	if err != nil {
		t.Fatalf("buildConfig: %v", err)
	}
	base, err := runScenarioString(baseCfg)
	if err != nil {
		t.Fatalf("serial runScenario: %v", err)
	}
	for _, tc := range []struct {
		name             string
		islands, workers int
	}{
		{"islands only", 4, 1},
		{"islands and workers", 8, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := defaultScenario()
			s.Islands = tc.islands
			s.IslandsSet = true
			s.Workers = tc.workers
			cfg, err := buildConfig(s)
			if err != nil {
				t.Fatalf("buildConfig: %v", err)
			}
			got, err := runScenarioString(cfg)
			if err != nil {
				t.Fatalf("runScenario: %v", err)
			}
			if got != base {
				t.Errorf("-islands %d -workers %d changed the report.\n--- sharded\n%s\n--- serial\n%s",
					tc.islands, tc.workers, got, base)
			}
		})
	}
}

// TestSpecIslandsHint checks that a spec's islands field seeds the
// partition, and that an explicit -islands flag overrides it.
func TestSpecIslandsHint(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "hint.json")
	body := `{
		"name": "hint",
		"islands": 4,
		"phases": [{"name": "main", "steps": 2, "ops": [{"op": "compute", "mean": "1ms"}]}]
	}`
	if err := os.WriteFile(spec, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	s := defaultScenario()
	s.Spec = spec
	s.SpecSet = true
	cfg, err := buildConfig(s)
	if err != nil {
		t.Fatalf("buildConfig: %v", err)
	}
	if cfg.Islands != 4 {
		t.Errorf("spec hint not applied: cfg.Islands = %d, want 4", cfg.Islands)
	}
	s.Islands = 2
	s.IslandsSet = true
	cfg, err = buildConfig(s)
	if err != nil {
		t.Fatalf("buildConfig with -islands override: %v", err)
	}
	if cfg.Islands != 2 {
		t.Errorf("-islands should override the spec hint: cfg.Islands = %d, want 2", cfg.Islands)
	}
}

// TestProfileFlagsLeaveOutputAlone pins -cpuprofile/-memprofile: both
// files are written, in single-run and sweep mode, and what the
// simulator prints is byte-identical with and without them — profiles
// go to the named files and nowhere else.
func TestProfileFlagsLeaveOutputAlone(t *testing.T) {
	// Wall-clock fields are the only bytes of a sweep aggregate that
	// differ between any two runs.
	wall := regexp.MustCompile(`"(wall_ms|runs_per_sec)": [0-9.e+-]+`)
	sweep := defaultScenario()
	sweep.Sweep = true
	sweep.Steps = 6
	sweep.SweepRanks = "4,8"
	for name, s := range map[string]scenarioOpts{"single": defaultScenario(), "sweep": sweep} {
		t.Run(name, func(t *testing.T) {
			run := func(s scenarioOpts) string {
				t.Helper()
				var buf bytes.Buffer
				if code, err := execute(s, &buf); code != 0 || err != nil {
					t.Fatalf("execute = %d, %v", code, err)
				}
				return wall.ReplaceAllString(buf.String(), "")
			}
			plain := run(s)
			dir := t.TempDir()
			s.CPUProfile = filepath.Join(dir, "cpu.pprof")
			s.MemProfile = filepath.Join(dir, "heap.pprof")
			if profiled := run(s); profiled != plain {
				t.Error("output differs with -cpuprofile/-memprofile set")
			}
			for _, path := range []string{s.CPUProfile, s.MemProfile} {
				if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
					t.Errorf("profile %s missing or empty (err %v)", filepath.Base(path), err)
				}
			}
		})
	}
	s := defaultScenario()
	s.CPUProfile = filepath.Join(t.TempDir(), "no-such-dir", "cpu.pprof")
	if code, err := execute(s, &bytes.Buffer{}); code != 1 || err == nil || !strings.Contains(err.Error(), "-cpuprofile") {
		t.Errorf("unwritable -cpuprofile: execute = %d, %v; want exit 1 naming the flag", code, err)
	}
}
