package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materialises a map of path -> source under a temp dir.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for path, src := range files {
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestScanFlagsPackageLevelVars pins what the lint is for: a top-level
// var is a finding, consts/types/funcs and locals are not, and test
// files are skipped.
func TestScanFlagsPackageLevelVars(t *testing.T) {
	root := writeTree(t, map[string]string{
		"shardy/state.go": `package shardy

const fine = 1

var counter int

var a, b = 1, 2

func ok() { var local int; _ = local }
`,
		"shardy/state_test.go": `package shardy

var testOnly = map[string]bool{}
`,
	})
	findings, _, err := scan(root)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range findings {
		names = append(names, f.name)
	}
	want := []string{"shardy.counter", "shardy.a", "shardy.b"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("scan found %v, want %v", names, want)
	}
}

// TestScanHonoursAllowlist checks both directions: an allowlisted var
// is not a finding, and an allowlist entry that matches nothing is
// reported stale by report().
func TestScanHonoursAllowlist(t *testing.T) {
	root := writeTree(t, map[string]string{
		"memsim/kinds.go": `package memsim

var kindNames = 1
`,
	})
	findings, matched, err := scan(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("allowlisted var flagged: %v", findings)
	}
	if !matched["memsim.kindNames"] {
		t.Error("allowlist match not recorded")
	}
	// Only one of the allowlist entries matched, so report must
	// call the tree dirty on staleness grounds.
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	if clean := report(devnull, findings, matched); clean {
		t.Error("report ignored stale allowlist entries")
	}
}

// TestScanFlagsSyncFieldsOnLockFreeStructs pins the second rule: a
// field of a sync or sync/atomic type on a lockFree struct is a finding
// however it is spelled — named, embedded, behind a pointer, through a
// renamed import, on a generic struct — and the same field on any other
// struct is not.
func TestScanFlagsSyncFieldsOnLockFreeStructs(t *testing.T) {
	root := writeTree(t, map[string]string{
		"vtime/clock.go": `package vtime

import "sync"

type Clock struct {
	mu  sync.Mutex
	now int64
}

type EventQueue[T any] struct {
	mu   sync.Mutex
	heap []T
}

type Stamp struct{ mu sync.Mutex }
`,
		"netsim/netsim.go": `package netsim

import "sync"

type Network struct {
	mu      sync.Mutex
	nextSeq uint64
}
`,
		"memsim/space.go": `package memsim

import (
	"sync"
	sa "sync/atomic"
)

type AddressSpace struct {
	sync.RWMutex
	gen sa.Uint64
	brk uint64
}

type Region struct {
	guard *sync.Mutex
	sync  int
}

type liveRegion struct {
	desc *Region
	once sync.Once
}

type contents struct{ dataLen uint64 }

type page struct {
	mu sync.Mutex
	b  []byte
}
`,
		"virtid/table.go": `package virtid

import "sync/atomic"

type Table struct {
	memo atomic.Pointer[int]
	live int
}

type window struct{ live int }
`,
	})
	findings, matched, err := scan(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, f.name+":"+f.field)
	}
	want := []string{
		"memsim.AddressSpace:(embedded) sync.RWMutex",
		"memsim.AddressSpace:gen sa.Uint64",
		"memsim.Region:guard *sync.Mutex",
		"memsim.liveRegion:once sync.Once",
		"memsim.page:mu sync.Mutex",
		"netsim.Network:mu sync.Mutex",
		"virtid.Table:memo atomic.Pointer[int]",
		"vtime.Clock:mu sync.Mutex",
		"vtime.EventQueue:mu sync.Mutex",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("scan found:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for key := range lockFree {
		if !matched[key] {
			t.Errorf("lockFree struct %s present in the tree but not matched", key)
		}
	}
}

// TestLockFreeEntriesCannotGoStale is the rule's completeness check, in
// both directions: a lockFree entry whose struct is gone (renamed, or
// turned into a non-struct type) makes report call the tree dirty, and
// every entry names a struct the repository really declares.
func TestLockFreeEntriesCannotGoStale(t *testing.T) {
	root := writeTree(t, map[string]string{
		"vtime/clock.go":  "package vtime\n\ntype Clock int64\n",
		"memsim/space.go": "package memsim\n\ntype AddressSpace struct{}\n\ntype Region struct{}\n",
	})
	findings, matched, err := scan(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("clean structs flagged: %v", findings)
	}
	if matched["vtime.Clock"] {
		t.Error("a non-struct Clock satisfied the vtime.Clock entry")
	}
	for key := range allowed {
		matched[key] = true // isolate the lockFree half of report
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	if clean := report(devnull, findings, matched); clean {
		t.Error("report ignored a lockFree entry that matches no struct")
	}

	_, matched, err = scan(filepath.Join("..", "..", "internal"))
	if err != nil {
		t.Fatal(err)
	}
	for key := range lockFree {
		if !matched[key] {
			t.Errorf("lockFree entry %q names no struct under internal/", key)
		}
	}
}

// TestRepoInternalIsClean is the live gate: the repository's own
// internal/ tree must scan clean — no package-level mutable state, no
// synchronisation field on single-owner state — with every allowlist
// entry in use.
func TestRepoInternalIsClean(t *testing.T) {
	findings, matched, err := scan(filepath.Join("..", "..", "internal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.field != "" {
			t.Errorf("synchronisation field %q on single-owner struct %s at %s", f.field, f.name, f.pos)
			continue
		}
		t.Errorf("package-level mutable state: %s at %s", f.name, f.pos)
	}
	for key := range allowed {
		if !matched[key] {
			t.Errorf("stale allowlist entry %q", key)
		}
	}
}
