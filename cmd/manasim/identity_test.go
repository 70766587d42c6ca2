package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// identityCorpus is the byte-identity corpus: one manasim invocation per
// row, each pinned by what it printed. A row is the argument vector
// (space-separated; no argument may contain a space), a tab, then the
// FNV-64a of stdout, the FNV-64a of stderr and the exit code. Lines
// starting with '#' and blank lines are comments. A row with no tab is
// an argument vector awaiting its hashes: add one, then run `make
// identity` to fill it in.
var identityCorpus = filepath.Join("testdata", "identity.txt")

// wallField matches the lines of a -sweep aggregate that carry host wall
// time, which no two runs share.
var wallField = regexp.MustCompile(`(?m)^\s*"(wall_ms|runs_per_sec)": .*\n`)

// identityRow runs one argument vector in-process, the way main would,
// and renders its row.
func identityRow(args []string) string {
	stdout, code, err := run(args...)
	if slices.Contains(args, "-sweep") {
		stdout = wallField.ReplaceAllString(stdout, "")
	}
	var stderr string
	if err != nil {
		stderr = fmt.Sprintf("manasim: %v\n", err)
	}
	return fmt.Sprintf("%s\t%s %s %d", strings.Join(args, " "), reportHash(stdout), reportHash(stderr), code)
}

// TestIdentityCorpus replays every row of testdata/identity.txt and fails
// on any row whose stdout, stderr or exit code moved. With -update it
// rewrites the file instead and prints the argument vector of each row
// that changed:
//
//	go test ./cmd/manasim -run TestIdentityCorpus -update   # make identity
func TestIdentityCorpus(t *testing.T) {
	data, err := os.ReadFile(identityCorpus)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	rows := 0
	for i, line := range lines {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rows++
		argv, _, _ := strings.Cut(line, "\t")
		got := identityRow(strings.Fields(argv))
		if got == line {
			continue
		}
		if *update {
			fmt.Printf("identity: changed: %s\n", argv)
			lines[i] = got
			continue
		}
		t.Errorf("manasim [%s]\n got: %s\nwant: %s", argv, got[len(argv)+1:], line[min(len(line), len(argv)+1):])
	}
	if rows < 100 {
		t.Errorf("identity corpus has %d rows, want at least 100", rows)
	}
	if *update {
		if err := os.WriteFile(identityCorpus, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
