package main

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"mana/internal/coordinator"
	"mana/internal/scenario"
)

// TestLibrarySpecReportGoldens pins a report golden for every library
// spec beyond the two classic ones, at the default 8-rank scenario with
// failure and restart. Regenerate deliberately with:
//
//	go test ./cmd/manasim -run TestLibrarySpecReportGoldens -update
func TestLibrarySpecReportGoldens(t *testing.T) {
	for _, name := range []string{"stencil", "master-worker", "bursty-alltoall", "pipeline"} {
		t.Run(name, func(t *testing.T) {
			got := report(t, "-spec", name)
			if !strings.Contains(got, "injected failure") {
				t.Errorf("%s scenario did not exercise failure/restart:\n%s", name, got)
			}
			checkGolden(t, name, got)
		})
	}
}

// TestSpecDeterminismAcrossGOMAXPROCS is the report half of the
// determinism property: the same spec and seed must render byte-
// identical reports whatever the parallelism of the host process.
func TestSpecDeterminismAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var reports []string
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		reports = append(reports, report(t, "-spec", "bursty-alltoall", "-ranks", "12", "-steps", "16"))
	}
	if reports[0] != reports[1] {
		t.Errorf("report depends on GOMAXPROCS:\n--- 1\n%s\n--- 4\n%s", reports[0], reports[1])
	}
}

// TestRecordReplayRoundTrip pins the trace mode end to end: every
// library spec's job recorded with -record parses and replays with
// -trace at the recorded rank count, and reproduces the original report
// byte for byte where the spec's checkpoint policy is the classic one
// (a trace carries no policy; overlap declares its own).
func TestRecordReplayRoundTrip(t *testing.T) {
	for _, name := range scenario.Names() {
		trace := filepath.Join(t.TempDir(), name+".trace")
		recorded := report(t, "-spec", name, "-ranks", "6", "-record", trace)
		replayed := report(t, "-trace", trace)
		if !strings.Contains(replayed, "manasim: 6 ranks") {
			t.Errorf("%s: replay did not take its rank count from the trace header:\n%s", name, replayed)
		}
		if name != "overlap" && recorded != replayed {
			t.Errorf("%s: record->replay altered the report:\n--- recorded\n%s\n--- replayed\n%s", name, recorded, replayed)
		}
	}
}

// TestSpecFileEqualsLibrary: a spec loaded from a file on disk behaves
// exactly like its embedded library twin — the "add a workload without
// writing Go" path.
func TestSpecFileEqualsLibrary(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "internal", "scenario", "specs", "pipeline.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "my-pipeline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if report(t, "-spec", "pipeline") != report(t, "-spec", path) {
		t.Error("a file copy of the pipeline spec renders a different report than the library spec")
	}
}

// TestMismatchedCollectiveTraceFails replays a recorded trace edited so
// that rank 0 enters a barrier where the others enter an allreduce: the
// run fails with the coordinator's named error and exit status 1, on the
// serial scheduler and with parallel islands, instead of panicking.
func TestMismatchedCollectiveTraceFails(t *testing.T) {
	trace := filepath.Join("testdata", "collective-mismatch.trace")
	for _, extra := range [][]string{nil, {"-islands", "2", "-workers", "2"}} {
		args := append([]string{"-trace", trace, "-no-fail"}, extra...)
		_, code, err := run(args...)
		if code != 1 || !errors.Is(err, coordinator.ErrCollectiveMismatch) || !strings.HasPrefix(err.Error(), "run failed: ") {
			t.Errorf("manasim %v: exit %d, %v; want exit 1 with run failed: and ErrCollectiveMismatch", args, code, err)
		}
	}
}
