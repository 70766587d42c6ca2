package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"mana/internal/coordinator"
	"mana/internal/fleet"
	"mana/internal/storage"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// run executes a command line the way main does and returns what it
// printed, the exit code and the error. Every test drives the CLI through
// it (or configOf), so none can build a state the parser cannot.
func run(args ...string) (string, int, error) {
	o, err := parseFlags(args)
	if err != nil {
		return "", 2, err
	}
	var buf bytes.Buffer
	code, err := execute(&o, &buf)
	return buf.String(), code, err
}

// report is run for command lines that must succeed.
func report(t *testing.T, args ...string) string {
	t.Helper()
	out, code, err := run(args...)
	if code != 0 || err != nil {
		t.Fatalf("manasim %v: exit %d, %v", args, code, err)
	}
	return out
}

// configOf translates a single-run command line into the coordinator
// configuration it would run, along the path simulate takes.
func configOf(args ...string) (coordinator.Config, error) {
	o, err := parseFlags(args)
	if err != nil {
		return coordinator.Config{}, err
	}
	j, err := o.job()
	if err != nil {
		return coordinator.Config{}, err
	}
	eng := fleet.NewEngine()
	if j, err = o.oneRun(eng, j); err != nil {
		return coordinator.Config{}, err
	}
	return eng.Config(j)
}

// usageError runs a command line that must be refused before anything
// runs, and returns the refusal.
func usageError(t *testing.T, args ...string) error {
	t.Helper()
	_, code, err := run(args...)
	if code != 2 || err == nil {
		t.Fatalf("manasim %v: exit %d, %v; want a usage error (exit 2)", args, code, err)
	}
	return err
}

// checkGolden compares got with testdata/<name>_report.golden, rewriting
// the file first under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name+"_report.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s report deviates from golden file.\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}

// TestDefaultScenarioReportGolden pins the default scenario's report
// bytes: any change to the scheduler, the cost model or the report
// format shows up as a diff against testdata/default_report.golden.
// Regenerate deliberately with:
//
//	go test ./cmd/manasim -run TestDefaultScenarioReportGolden -update
func TestDefaultScenarioReportGolden(t *testing.T) {
	checkGolden(t, "default", report(t))
}

// TestIncrementalScenarioReportGolden pins the -incremental scenario the
// same way: the default workload checkpointed with delta images (full
// every 4th), failure and restart included.
func TestIncrementalScenarioReportGolden(t *testing.T) {
	got := report(t, "-incremental")
	if !strings.Contains(got, "incremental=true") {
		t.Errorf("incremental report does not surface its mode:\n%s", got)
	}
	checkGolden(t, "incremental", got)
}

// TestOverlapScenarioReportGolden pins the -spec overlap scenario:
// staggered sub-communicator collectives, a checkpoint requested while
// at least two of them are in flight (so the topological-sort drain
// planner orders a real dependency graph), failure and restart.
func TestOverlapScenarioReportGolden(t *testing.T) {
	got := report(t, "-spec", "overlap")
	// The acceptance bar for the drain planner: at least one checkpoint
	// drained >= 2 simultaneously in-flight collectives.
	if !regexp.MustCompile(`coll-drain: planned=([2-9]|\d\d+) overlap-width=([2-9]|\d\d+)`).MatchString(got) {
		t.Errorf("no checkpoint drained >= 2 overlapping collectives:\n%s", got)
	}
	if !strings.Contains(got, "comm-splits executed=16") {
		t.Errorf("overlap report missing comm-split accounting:\n%s", got)
	}
	checkGolden(t, "overlap", got)
}

// TestScenarioByteIdenticalAcrossRuns is the CLI-level determinism
// check: the same scenario must render the same bytes every time.
func TestScenarioByteIdenticalAcrossRuns(t *testing.T) {
	r1 := report(t, "-ranks", "4", "-steps", "10")
	r2 := report(t, "-ranks", "4", "-steps", "10")
	if r1 != r2 {
		t.Errorf("reports differ between identical runs:\n--- run 1\n%s\n--- run 2\n%s", r1, r2)
	}
}

// TestKernelFlagChangesReport exercises the patched-kernel path through
// the CLI plumbing.
func TestKernelFlagChangesReport(t *testing.T) {
	small := []string{"-ranks", "4", "-steps", "6", "-no-fail"}
	if report(t, small...) == report(t, append(small, "-kernel", "patched")...) {
		t.Error("kernel personality had no effect on the report")
	}
}

// TestVirtidFlagChangesReport exercises the -virtid plumbing: the mutex
// baseline charges a higher per-lookup cost, so the report must differ
// from the sharded default.
func TestVirtidFlagChangesReport(t *testing.T) {
	small := []string{"-ranks", "4", "-steps", "6", "-no-fail"}
	sharded, mutex := report(t, small...), report(t, append(small, "-virtid", "mutex")...)
	if sharded == mutex {
		t.Error("virtid implementation had no effect on the report")
	}
	for report, want := range map[string]string{sharded: "impl=sharded", mutex: "impl=mutex"} {
		if !strings.Contains(report, want) {
			t.Errorf("report does not name its virtid implementation (%s)", want)
		}
	}
}

// TestBuildConfigValidation covers the single-run command lines that are
// refused before anything runs: exit code 2, the message naming the
// offending flag (or file).
func TestBuildConfigValidation(t *testing.T) {
	drainPlan := filepath.Join("testdata", "faults", "staging", "drain-torn-fallback.json")
	cases := []struct {
		name, want string
		args       []string
	}{
		{"zero ranks", "-ranks must be at least 1", []string{"-ranks", "0"}},
		{"negative steps", "-steps must be at least 0", []string{"-steps", "-1"}},
		{"unknown kernel", "-kernel", []string{"-kernel", "plan9"}},
		{"unknown virtid", "-virtid", []string{"-virtid", "bogolock"}},
		{"tiny overlap group", "-group must be at least 2", []string{"-spec", "overlap", "-group", "1"}},
		{"negative full-every", "-full-every", []string{"-full-every", "-1"}},
		{"group without splits", `-group has no effect on spec "default"`, []string{"-group", "4"}},
		{"group on splitless spec", `-group has no effect on spec "stencil"`, []string{"-spec", "stencil", "-group", "4"}},
		{"unknown spec", "no-such-spec.json", []string{"-spec", "no-such-spec.json"}},
		{"trace and spec", "-spec cannot be combined with -trace", []string{"-trace", "x.trace", "-spec", "stencil"}},
		{"trace and group", "-group cannot be combined with -trace", []string{"-trace", "x.trace", "-group", "4"}},
		{"trace and ranks", "-ranks cannot be combined with -trace", []string{"-trace", "x.trace", "-ranks", "8"}},
		{"trace and steps", "-steps cannot be combined with -trace", []string{"-trace", "x.trace", "-steps", "30"}},
		{"missing trace file", "-trace", []string{"-trace", "testdata/no-such.trace"}},
		{"removed compress flag", "flag provided but not defined: -compress", []string{"-compress"}},
		{"removed compress-cost flag", "flag provided but not defined: -compress-cost", []string{"-compress-cost", "0.5"}},
		{"unknown storage profile", "-storage", []string{"-storage", "quantum"}},
		{"compressed profile without incremental", `-storage "staged-compressed" enables compression`, []string{"-storage", "staged-compressed"}},
		{"sweep-storage without sweep", "-sweep-storage has no effect without -sweep", []string{"-sweep-storage", "direct,staged"}},
		{"drain-hop plan without staging", "image-write/drain", []string{"-faults", drainPlan}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := usageError(t, tc.args...); !strings.Contains(err.Error(), tc.want) {
				t.Errorf("manasim %v: error %q does not carry %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestModesAgree pins that a single run and a sweep check the shared
// flags by one rule: each invalid command line is refused as given and
// with -sweep prepended, naming the same flag both times.
func TestModesAgree(t *testing.T) {
	for _, invalid := range [][]string{
		{"-ckpt-at", "-1ms"},
		{"-storage", "staged-compressed"}, // with no incremental run or cell
		{"-full-every", "-1"},
		{"-steps", "-1"},
		{"-kernel", "plan9"},
		{"-virtid", "bogolock"},
	} {
		name := invalid[0]
		t.Run(name, func(t *testing.T) {
			names := regexp.MustCompile(`(^|\s)` + name + `\b`)
			for _, args := range [][]string{invalid, append([]string{"-sweep"}, invalid...)} {
				if err := usageError(t, args...); !names.MatchString(err.Error()) {
					t.Errorf("manasim %v: error %q does not name %s", args, err, name)
				}
			}
		})
	}
}

// TestRuleTableIsComplete keeps the flag set, the rule table and the
// package doc's usage block describing the same flags: a flag added
// without a row, a row (or a conflict) naming a flag that is gone, a
// minimum of the wrong type, a flag the usage omits, or a usage entry
// naming a flag that is gone all fail here.
func TestRuleTableIsComplete(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	var usage string // the doc's indented lines are the usage block
	for _, line := range strings.Split(string(src), "\n") {
		if strings.HasPrefix(line, "//\t") {
			usage += line + "\n"
		}
	}
	fs := newFlagSet(new(opts))
	fs.VisitAll(func(f *flag.Flag) {
		r, ok := rules[f.Name]
		if !ok {
			t.Errorf("flag -%s has no row in rules", f.Name)
		}
		if r.modes == 0 || r.modes&^everywhere != 0 {
			t.Errorf("rules[%q]: modes %b names no known mode", f.Name, r.modes)
		}
		if value := f.Value.(flag.Getter).Get(); r.min != nil && reflect.TypeOf(r.min) != reflect.TypeOf(value) {
			t.Errorf("rules[%q]: min is a %T, the flag holds a %T", f.Name, r.min, value)
		}
		if !regexp.MustCompile(`-` + f.Name + `[ \]]`).MatchString(usage) {
			t.Errorf("flag -%s is missing from the package doc's usage block", f.Name)
		}
	})
	for _, m := range regexp.MustCompile(`[\s\[]-([a-z][a-z-]*)`).FindAllStringSubmatch(usage, -1) {
		if fs.Lookup(m[1]) == nil {
			t.Errorf("the package doc's usage block names -%s, which is not a registered flag", m[1])
		}
	}
	for name, r := range rules {
		if fs.Lookup(name) == nil {
			t.Errorf("rules[%q] names no registered flag", name)
		}
		for _, other := range r.conflicts {
			if fs.Lookup(other) == nil {
				t.Errorf("rules[%q] conflicts with -%s, which is not a registered flag", name, other)
			}
		}
		if (len(r.conflicts) > 0) != (r.why != "") {
			t.Errorf("rules[%q]: conflicts and why go together", name)
		}
	}
}

// TestStorageFlagResolution covers the positive half of -storage, the
// one storage flag: a profile name resolves to its pipeline. (The
// identity corpus pins -storage with JSON documents.)
func TestStorageFlagResolution(t *testing.T) {
	cfg, err := configOf("-storage", "staged")
	if err != nil {
		t.Fatalf("-storage staged: %v", err)
	}
	if !cfg.Storage.Staging || cfg.Storage.BBCapacity != storage.DefaultBBCapacity {
		t.Errorf("-storage staged compiled wrong: %+v", cfg.Storage)
	}
}

// writeSpec writes a minimal spec carrying one extra top-level block.
func writeSpec(t *testing.T, name, block string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name+".json")
	body := fmt.Sprintf(`{
		"name": %q,
		"phases": [{"name": "main", "steps": 2, "ops": [{"op": "compute", "mean": "1ms"}]}],
		%s
	}`, name, block)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSpecStorageBlock covers a spec-declared storage block: it
// resolves, and -storage overrides it whole.
func TestSpecStorageBlock(t *testing.T) {
	spec := writeSpec(t, "st", `"storage": {"burst_buffer": {"bandwidth": 4e9, "capacity": 1048576}}`)
	cfg, err := configOf("-spec", spec)
	if err != nil {
		t.Fatalf("spec block: %v", err)
	}
	if !cfg.Storage.Staging || cfg.Storage.BBBandwidth != 4e9 || cfg.Storage.BBCapacity != 1<<20 {
		t.Errorf("spec storage block not applied: %+v", cfg.Storage)
	}
	cfg, err = configOf("-spec", spec, "-storage", "direct")
	if err != nil {
		t.Fatalf("-storage overrides block: %v", err)
	}
	if cfg.Storage.Staging {
		t.Errorf("-storage direct did not override the spec block: %+v", cfg.Storage)
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
	for name, args := range map[string][]string{
		"single": nil,
		"sweep":  {"-sweep", "-steps", "6", "-sweep-ranks", "4,8"},
	} {
		t.Run(name, func(t *testing.T) {
			plain := wall.ReplaceAllString(report(t, args...), "")
			cpu, heap := filepath.Join(t.TempDir(), "cpu.pprof"), filepath.Join(t.TempDir(), "heap.pprof")
			profiled := report(t, append(args, "-cpuprofile", cpu, "-memprofile", heap)...)
			if wall.ReplaceAllString(profiled, "") != plain {
				t.Error("output differs with -cpuprofile/-memprofile set")
			}
			for _, path := range []string{cpu, heap} {
				if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
					t.Errorf("profile %s missing or empty (err %v)", filepath.Base(path), err)
				}
			}
		})
	}
	_, code, err := run("-cpuprofile", filepath.Join(t.TempDir(), "no-such-dir", "cpu.pprof"))
	if code != 1 || err == nil || !strings.Contains(err.Error(), "-cpuprofile") {
		t.Errorf("unwritable -cpuprofile: exit %d, %v; want exit 1 naming the flag", code, err)
	}
}
