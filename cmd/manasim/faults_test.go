package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestFailFlagValidation covers the failure-flag surface's error paths:
// -no-fail where a -faults plan or a spec-declared plan would silently
// override it is rejected naming the flag, and unreadable or malformed
// plans are refused — for a single run and a sweep alike.
func TestFailFlagValidation(t *testing.T) {
	specWithFaults := writeSpec(t, "faulty", `"faults": {"faults": [{"at": "checkpoint-commit", "n": 1, "kind": "rank-crash"}]}`)
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"faults":[{"at":"checkpoint-commit","n":1,"kind":"meteor"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		want string // substring the error must carry (the offending flag)
		args []string
	}{
		{"no-fail with faults", "-no-fail cannot be combined with -faults", []string{"-no-fail", "-faults", "testdata/faults/multi-failure.json"}},
		{"missing faults file", "-faults", []string{"-faults", "testdata/faults/no-such-plan.json"}},
		{"invalid faults file", "faults[0].kind", []string{"-faults", bad}},
		{"no-fail with spec plan", "declares its own fault plan", []string{"-spec", specWithFaults, "-no-fail"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, args := range [][]string{tc.args, append([]string{"-sweep"}, tc.args...)} {
				if err := usageError(t, args...); !strings.Contains(err.Error(), tc.want) {
					t.Errorf("manasim %v: error %q does not carry %q", args, err, tc.want)
				}
			}
		})
	}
}

// TestFaultPlanOverridesSpecPlan pins the precedence contract: -faults
// replaces a spec-declared plan outright rather than layering onto it.
func TestFaultPlanOverridesSpecPlan(t *testing.T) {
	spec := writeSpec(t, "faulty", `"faults": {"faults": [{"at": "virtual-time", "time": "1us", "kind": "rank-crash"}]}`)
	cfg, err := configOf("-spec", spec, "-faults", "testdata/faults/virtual-time-crash.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Faults) != 1 {
		t.Fatalf("compiled faults = %d, want 1 (the CLI plan, not the spec's)", len(cfg.Faults))
	}
	if got, want := cfg.Faults[0].Time, 6*time.Millisecond; time.Duration(got) != want {
		t.Errorf("fault time = %v, want %v from the CLI plan", got, want)
	}
}

// TestMultiFailurePlanAcceptance is the PR's headline scenario: one plan
// injecting a mid-drain crash, a torn image write and a restart-time
// double fault. The job must recover by falling back past the torn and
// poisoned links, report the fallback depth and lost work, render
// byte-identical output across repeated runs at -islands 8 -workers 4,
// and land on the fault-free final fingerprint.
func TestMultiFailurePlanAcceptance(t *testing.T) {
	args := []string{"-faults", filepath.Join("testdata", "faults", "multi-failure.json"), "-islands", "8", "-workers", "4"}
	first, second := report(t, args...), report(t, args...)
	if first != second {
		t.Errorf("multi-failure output differs between identical runs at -islands 8 -workers 4:\n--- run 1\n%s\n--- run 2\n%s",
			first, second)
	}
	for _, want := range []string{
		"injected failure after checkpoint #2; restarting from last image",
		"injected failure after checkpoint #3; restarting from last image",
		"restart failed (injected restart fault); falling back to an older image",
		"faults: torn-images=1",
		"fallback-depth=2",
		"torn-links=2",
	} {
		if !strings.Contains(first, want) {
			t.Errorf("multi-failure output missing %q:\n%s", want, first)
		}
	}
	if !regexp.MustCompile(`lost-work=[1-9]`).MatchString(first) {
		t.Errorf("multi-failure output does not report non-zero lost work:\n%s", first)
	}

	// The recovery contract: the final application state matches the
	// fault-free run's bit for bit.
	fp := func(out string) string {
		_, rest, ok := strings.Cut(out, "final fingerprint: ")
		if !ok {
			t.Fatalf("no final fingerprint line in:\n%s", out)
		}
		line, _, _ := strings.Cut(rest, "\n")
		return line
	}
	if got, want := fp(first), fp(report(t, "-no-fail")); got != want {
		t.Errorf("final fingerprint %s differs from fault-free %s", got, want)
	}
}

// TestSweepWithFaultPlan pins fleet-mode fault support: a -sweep over a
// fault plan reports per-cell fallback depth and lost work, stays
// byte-identical across pool widths, and each cell's hash matches the
// standalone invocation's bytes.
func TestSweepWithFaultPlan(t *testing.T) {
	plan := filepath.Join("testdata", "faults", "multi-failure.json")
	narrow := report(t, "-sweep", "-faults", plan, "-sweep-workers", "1")
	wide := report(t, "-sweep", "-faults", plan, "-sweep-workers", "4")

	var doc struct {
		Cells []struct {
			FallbackDepth *int   `json:"fallback_depth"`
			LostWorkNs    *int64 `json:"lost_work_ns"`
			Restarts      int    `json:"restarts"`
			ReportFNV64   string `json:"report_fnv64"`
		} `json:"cells"`
	}
	if err := json.Unmarshal([]byte(narrow), &doc); err != nil {
		t.Fatalf("aggregate is not valid JSON: %v\n%s", err, narrow)
	}
	if len(doc.Cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(doc.Cells))
	}
	cell := doc.Cells[0]
	switch {
	case cell.FallbackDepth == nil:
		t.Error("cell JSON has no fallback_depth field")
	case *cell.FallbackDepth != 2:
		t.Errorf("fallback_depth = %d, want 2", *cell.FallbackDepth)
	}
	switch {
	case cell.LostWorkNs == nil:
		t.Error("cell JSON has no lost_work_ns field")
	case *cell.LostWorkNs <= 0:
		t.Errorf("lost_work_ns = %d, want > 0", *cell.LostWorkNs)
	}

	// Pool width must not leak into the aggregate outside wall-clock
	// fields: compare after dropping them.
	strip := regexp.MustCompile(`"(wall_ms|runs_per_sec|pool_workers)": [0-9.e+-]+`)
	if strip.ReplaceAllString(narrow, "") != strip.ReplaceAllString(wide, "") {
		t.Errorf("sweep aggregate differs between pool widths 1 and 4:\n--- pool 1\n%s\n--- pool 4\n%s", narrow, wide)
	}
	if want := reportHash(report(t, "-faults", plan)); cell.ReportFNV64 != want {
		t.Errorf("sweep cell hash %s, standalone bytes hash %s", cell.ReportFNV64, want)
	}
}
