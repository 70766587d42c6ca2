package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
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
