package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"mana/internal/fleet"
)

// TestBuildSweepValidation covers the sweep flag surface's error paths:
// single-run-only flags are rejected by name, and malformed dimension
// lists, or storage entries nothing in the grid would act on, are
// refused.
func TestBuildSweepValidation(t *testing.T) {
	cases := []struct {
		name string
		want string // substring the error must carry (the offending flag)
		args []string
	}{
		{"record with sweep", "flag provided but not defined: -record", []string{"-record", "out.trace"}},
		{"trace with sweep", "flag provided but not defined: -trace", []string{"-trace", "x.trace"}},
		{"group with sweep", "flag provided but not defined: -group", []string{"-group", "4"}},
		{"bad ranks entry", "-sweep-ranks", []string{"-sweep-ranks", "8,zero"}},
		{"zero ranks entry", "-sweep-ranks", []string{"-sweep-ranks", "0"}},
		{"absurd ranks entry", `-sweep-ranks: entry "2000000": -ranks must be at most 1048576`, []string{"-sweep-ranks", "4,2000000"}},
		{"bad ckpt entry", "-sweep-ckpt", []string{"-sweep-ckpt", "5ms,eventually"}},
		{"negative ckpt entry", "-sweep-ckpt", []string{"-sweep-ckpt", "-1ms"}},
		{"bad virtid entry", "-sweep-virtid", []string{"-sweep-virtid", "sharded,bogolock"}},
		{"bad incremental entry", "-sweep-incremental", []string{"-sweep-incremental", "true,maybe"}},
		{"bad storage entry", `-sweep-storage: entry "quantum"`, []string{"-sweep-storage", "direct,quantum"}},
		{"compressing storage entry", `-sweep-storage entry "staged-compressed" enables compression`,
			[]string{"-sweep-storage", "direct,staged-compressed", "-sweep-incremental", "false"}},
		{"full-every without incremental cells", "-full-every has no effect: no cell of the sweep is incremental",
			[]string{"-full-every", "2"}},
		{"full-every over non-incremental cells", "-full-every has no effect: no cell of the sweep is incremental",
			[]string{"-incremental", "-sweep-incremental", "false", "-full-every", "2"}},
		{"zero sweep workers", "-sweep-workers", []string{"-sweep-workers", "0"}},
		{"unknown kernel", "-kernel", []string{"-kernel", "plan9"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := usageError(t, append([]string{"-sweep"}, tc.args...)...)
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %s", err, tc.want)
			}
		})
	}
}

// TestBuildConfigRejectsSweepFlags pins the other direction: a sweep
// dimension flag without -sweep is rejected naming the flag instead of
// being silently ignored.
func TestBuildConfigRejectsSweepFlags(t *testing.T) {
	for name, value := range map[string]string{
		"-sweep-specs":       "default,overlap",
		"-sweep-ranks":       "4,8",
		"-sweep-ckpt":        "1ms",
		"-sweep-virtid":      "mutex",
		"-sweep-incremental": "true",
		"-sweep-workers":     "4",
	} {
		t.Run(name, func(t *testing.T) {
			if err := usageError(t, name, value); !strings.Contains(err.Error(), name+" has no effect without -sweep") {
				t.Errorf("error %q does not name %s", err, name)
			}
		})
	}
}

// sweepOf translates a command line into the grid it would run.
func sweepOf(t *testing.T, args ...string) fleet.Sweep {
	t.Helper()
	o, err := parseFlags(args)
	if err != nil {
		t.Fatalf("parseFlags %v: %v", args, err)
	}
	j, err := o.job()
	if err != nil {
		t.Fatalf("job %v: %v", args, err)
	}
	sw, err := o.grid(fleet.NewEngine(), j)
	if err != nil {
		t.Fatalf("grid %v: %v", args, err)
	}
	return sw
}

// TestBuildSweepDefaultsToSingleRunFlags checks that `-sweep` alone is
// a 1-cell grid of exactly the single-run scenario.
func TestBuildSweepDefaultsToSingleRunFlags(t *testing.T) {
	sw := sweepOf(t, "-sweep")
	want := fleet.Sweep{
		Specs: []string{"default"}, Ranks: []int{8}, CkptAt: []time.Duration{5 * time.Millisecond},
		Virtids: []string{"sharded"}, Incremental: []bool{false}, Base: sw.Base,
	}
	if !reflect.DeepEqual(sw, want) {
		t.Errorf("-sweep alone builds %+v, want the one default cell %+v", sw, want)
	}
	if !sw.Base.Crash {
		t.Error("Base.Crash = false, want the default scenario's crash")
	}
}

// sweepDoc mirrors the JSON aggregate's shape for decoding in tests.
type sweepDoc struct {
	Cells []struct {
		Spec        string `json:"spec"`
		Ranks       int    `json:"ranks"`
		CkptAt      string `json:"ckpt_at"`
		Virtid      string `json:"virtid"`
		Incremental bool   `json:"incremental"`
		ReportFNV64 string `json:"report_fnv64"`
		ReportBytes int    `json:"report_bytes"`
	} `json:"cells"`
	Totals struct {
		Runs         int     `json:"runs"`
		RunsPerSec   float64 `json:"runs_per_sec"`
		SpecCompiles uint64  `json:"spec_compiles"`
	} `json:"totals"`
}

// TestSweepCellsMatchStandaloneRuns is the CLI-level byte-identity
// statement for fleet mode: every cell hash in the -sweep aggregate
// must equal the FNV-64a of the bytes the equivalent standalone manasim
// invocation prints.
func TestSweepCellsMatchStandaloneRuns(t *testing.T) {
	out := report(t, "-sweep", "-steps", "10", "-sweep-specs", "default,overlap", "-sweep-ranks", "4,8",
		"-sweep-ckpt", "1ms", "-sweep-virtid", "sharded,mutex", "-sweep-incremental", "false,true", "-sweep-workers", "4")
	var doc sweepDoc
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("aggregate is not valid JSON: %v\n%s", err, out)
	}
	if doc.Totals.Runs != 16 || len(doc.Cells) != 16 {
		t.Fatalf("grid has %d cells / %d runs, want 16", len(doc.Cells), doc.Totals.Runs)
	}
	if doc.Totals.SpecCompiles != 4 {
		t.Errorf("SpecCompiles = %d, want 4 (2 specs x 2 rank counts)", doc.Totals.SpecCompiles)
	}
	for _, cell := range doc.Cells {
		single := report(t, "-steps", "10", "-spec", cell.Spec, "-ranks", strconv.Itoa(cell.Ranks), "-ckpt-at", cell.CkptAt,
			"-virtid", cell.Virtid, "-incremental="+strconv.FormatBool(cell.Incremental))
		if want := reportHash(single); cell.ReportFNV64 != want {
			t.Errorf("cell %s/ranks=%d/virtid=%s/incr=%v: aggregate hash %s, standalone bytes hash %s",
				cell.Spec, cell.Ranks, cell.Virtid, cell.Incremental, cell.ReportFNV64, want)
		}
		if cell.ReportBytes != len(single) {
			t.Errorf("cell %s/ranks=%d: aggregate says %d report bytes, standalone printed %d",
				cell.Spec, cell.Ranks, cell.ReportBytes, len(single))
		}
	}
}

// reportHash is the FNV-64a a sweep cell records for these report bytes.
func reportHash(report string) string {
	h := fnv.New64a()
	h.Write([]byte(report))
	return fmt.Sprintf("%016x", h.Sum64())
}
