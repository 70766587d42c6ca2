package faultplan

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mana/internal/vtime"
)

func TestParseValidPlan(t *testing.T) {
	doc := `{
		"faults": [
			{"at": "checkpoint-commit", "n": 2, "kind": "rank-crash", "delay": "250us"},
			{"at": "drain-start", "n": 3, "kind": "rank-crash"},
			{"at": "image-write", "n": 2, "kind": "torn-write", "rank": 3, "pages": 4},
			{"at": "image-write", "n": 1, "kind": "page-corruption", "rank": 1, "pages": 2},
			{"at": "virtual-time", "time": "12ms", "kind": "rank-crash"},
			{"at": "restart", "n": 1, "kind": "rank-crash"}
		],
		"max_restarts": 5
	}`
	p, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.MaxRestarts != 5 {
		t.Errorf("MaxRestarts = %d, want 5", p.MaxRestarts)
	}
	fs, err := p.Compile(8)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(fs) != 6 {
		t.Fatalf("compiled %d faults, want 6", len(fs))
	}
	if fs[0].Anchor != AtCheckpointCommit || fs[0].N != 2 || fs[0].Delay != 250*vtime.Microsecond {
		t.Errorf("fault 0 compiled wrong: %+v", fs[0])
	}
	if fs[2].Kind != TornWrite || fs[2].Rank != 3 || fs[2].Pages != 4 {
		t.Errorf("fault 2 compiled wrong: %+v", fs[2])
	}
	if fs[4].Anchor != AtVirtualTime || fs[4].Time != vtime.Time(12*vtime.Millisecond) {
		t.Errorf("fault 4 compiled wrong: %+v", fs[4])
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"unknown field", `{"faults": [], "surprise": 1}`, "surprise"},
		{"trailing data", `{"faults": [{"at":"restart","n":1,"kind":"rank-crash"}]} {}`, "trailing data"},
		{"empty plan", `{"faults": []}`, `faults: plan declares no faults`},
		{"negative max restarts", `{"faults": [{"at":"restart","n":1,"kind":"rank-crash"}], "max_restarts": -1}`, "max_restarts: must be non-negative"},
		{"bad anchor", `{"faults": [{"at":"coffee-break","kind":"rank-crash"}]}`, `faults[0].at: unknown anchor "coffee-break"`},
		{"bad kind", `{"faults": [{"at":"restart","n":1,"kind":"meteor"}]}`, `faults[0].kind: unknown kind "meteor"`},
		{"missing ordinal", `{"faults": [{"at":"checkpoint-commit","kind":"rank-crash"}]}`, "faults[0].n: anchor \"checkpoint-commit\" needs an ordinal"},
		{"ordinal on virtual-time", `{"faults": [{"at":"virtual-time","n":2,"time":"1ms","kind":"rank-crash"}]}`, "faults[0].n: only valid for ordinal anchors"},
		{"missing time", `{"faults": [{"at":"virtual-time","kind":"rank-crash"}]}`, "faults[0].time: anchor \"virtual-time\" needs a Go duration"},
		{"negative time", `{"faults": [{"at":"virtual-time","time":"-3ms","kind":"rank-crash"}]}`, "faults[0].time: must be positive"},
		{"time on ordinal anchor", `{"faults": [{"at":"restart","n":1,"time":"1ms","kind":"rank-crash"}]}`, "faults[0].time: only valid for anchor \"virtual-time\""},
		{"crash at image-write", `{"faults": [{"at":"image-write","n":1,"kind":"rank-crash"}]}`, `faults[0].kind: anchor "image-write" wants "torn-write" or "page-corruption"`},
		{"torn-write at commit", `{"faults": [{"at":"checkpoint-commit","n":1,"kind":"torn-write"}]}`, `faults[0].kind: kind "torn-write" is only valid at "image-write" anchors`},
		{"rank on crash", `{"faults": [{"at":"checkpoint-commit","n":1,"kind":"rank-crash","rank":2}]}`, "faults[0].rank: only valid for \"image-write\" faults"},
		{"negative rank", `{"faults": [{"at":"image-write","n":1,"kind":"torn-write","rank":-1}]}`, "faults[0].rank: must be non-negative"},
		{"delay on restart", `{"faults": [{"at":"restart","n":1,"kind":"rank-crash","delay":"1ms"}]}`, "faults[0].delay: only valid for \"checkpoint-commit\" and \"drain-start\""},
		{"bad delay", `{"faults": [{"at":"checkpoint-commit","n":1,"kind":"rank-crash","delay":"soon"}]}`, "faults[0].delay: not a Go duration"},
		{"negative delay", `{"faults": [{"at":"checkpoint-commit","n":1,"kind":"rank-crash","delay":"-1ms"}]}`, "faults[0].delay: must be non-negative"},
		{"pages on crash", `{"faults": [{"at":"drain-start","n":1,"kind":"rank-crash","pages":3}]}`, "faults[0].pages: only valid for \"torn-write\" and \"page-corruption\""},
		{"corruption needs pages", `{"faults": [{"at":"image-write","n":1,"kind":"page-corruption"}]}`, "faults[0].pages: must be at least 1"},
		{"field path indexes", `{"faults": [{"at":"restart","n":1,"kind":"rank-crash"},{"at":"image-write","n":1,"kind":"page-corruption"}]}`, "faults[1].pages"},
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

func TestCompileRangeChecksRank(t *testing.T) {
	p := Plan{Faults: []Spec{{At: "image-write", N: 1, Kind: "torn-write", Rank: 8}}}
	if _, err := p.Compile(8); err == nil || !strings.Contains(err.Error(), "faults[0].rank: rank 8 out of range for a 8-rank job") {
		t.Errorf("Compile(8) error = %v, want rank range error", err)
	}
	if _, err := p.Compile(9); err != nil {
		t.Errorf("Compile(9): %v", err)
	}
}

func TestValidateNamedGraftsPath(t *testing.T) {
	p := Plan{Faults: []Spec{{At: "nowhere", Kind: "rank-crash"}}}
	var gotPath string
	err := p.ValidateNamed(func(path, format string, args ...any) error {
		gotPath = path
		return fmt.Errorf("custom: %s: %s", path, fmt.Sprintf(format, args...))
	})
	if gotPath != "faults[0].at" {
		t.Errorf("path = %q, want faults[0].at", gotPath)
	}
	if err == nil || !strings.HasPrefix(err.Error(), "custom: faults[0].at:") {
		t.Errorf("error = %v, want custom-prefixed error", err)
	}
}

// TestHopQualifierRoundTrips pins the image-write hop qualifier through
// Parse → Validate → Compile: the explicit stage and drain spellings
// resolve to their hops, and the bare anchor stays a documented alias
// for the stage hop, so pre-qualifier plans compile unchanged.
func TestHopQualifierRoundTrips(t *testing.T) {
	doc := `{
		"faults": [
			{"at": "image-write/stage", "n": 1, "kind": "torn-write"},
			{"at": "image-write/drain", "n": 2, "kind": "torn-write", "rank": 3},
			{"at": "image-write", "n": 3, "kind": "page-corruption", "pages": 2},
			{"at": "image-write/drain", "n": 3, "kind": "page-corruption", "pages": 4}
		]
	}`
	p, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	fs, err := p.Compile(8)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	want := []Hop{HopStage, HopDrain, HopStage, HopDrain}
	for i, f := range fs {
		if f.Anchor != AtImageWrite {
			t.Errorf("fault %d anchor = %v, want AtImageWrite", i, f.Anchor)
		}
		if f.Hop != want[i] {
			t.Errorf("fault %d hop = %v, want %v", i, f.Hop, want[i])
		}
	}
	if HopStage.String() != "stage" || HopDrain.String() != "drain" {
		t.Errorf("hop spellings = %q/%q, want stage/drain", HopStage, HopDrain)
	}
	if !AnyDrainHop(fs) {
		t.Error("AnyDrainHop missed the drain faults")
	}
	if AnyDrainHop(fs[:1]) || AnyDrainHop(fs[2:3]) {
		t.Error("AnyDrainHop flagged stage-only faults")
	}
}

// TestHopQualifierRejections covers the qualifier's validation errors:
// only image-write takes one, and only the two documented spellings.
func TestHopQualifierRejections(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"hop on commit", `{"faults": [{"at":"checkpoint-commit/drain","n":1,"kind":"rank-crash"}]}`,
			`faults[0].at: anchor "checkpoint-commit" takes no hop qualifier, got "drain"`},
		{"hop on drain-start", `{"faults": [{"at":"drain-start/stage","n":1,"kind":"rank-crash"}]}`,
			`faults[0].at: anchor "drain-start" takes no hop qualifier, got "stage"`},
		{"unknown hop", `{"faults": [{"at":"image-write/sideways","n":1,"kind":"torn-write"}]}`,
			`faults[0].at: unknown hop qualifier "sideways" for anchor "image-write" (want "stage" or "drain")`},
		{"empty hop", `{"faults": [{"at":"image-write/","n":1,"kind":"torn-write"}]}`,
			`faults[0].at: unknown hop qualifier ""`},
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

// TestDefaultCrashCompiles pins the default scenario's crash: one rank
// crash 250us after checkpoint #2 commits.
func TestDefaultCrashCompiles(t *testing.T) {
	p := DefaultCrash()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	fs, err := p.Compile(4)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(fs) != 1 {
		t.Fatalf("compiled %d faults, want 1", len(fs))
	}
	f := fs[0]
	if f.Anchor != AtCheckpointCommit || f.N != 2 || f.Kind != RankCrash || f.Delay != 250*vtime.Microsecond {
		t.Errorf("default crash compiled wrong: %+v", f)
	}
}

// FuzzParse feeds arbitrary bytes to Parse, seeded with manasim's canned
// fault plans. Parse returns a plan or an error and never panics, and an
// accepted plan compiles without a panic for 1, 2 and 5 ranks.
func FuzzParse(f *testing.F) {
	dir := filepath.Join("..", "..", "cmd", "manasim", "testdata", "faults")
	paths, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	staging, _ := filepath.Glob(filepath.Join(dir, "staging", "*.json"))
	if paths = append(paths, staging...); len(paths) == 0 {
		f.Fatalf("no fault plans under %s", dir)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil {
			return
		}
		for _, ranks := range []int{1, 2, 5} {
			p.Compile(ranks) // an error is an answer; only a panic fails
		}
	})
}
