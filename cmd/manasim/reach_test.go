package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// unreachedList names every internal/ function no identity row reaches,
// with its reason; `make reach` checks it against a coverage run of the
// corpus.
var unreachedList = filepath.Join("testdata", "unreached.txt")

// maxUnreached bounds the list: a function that joins it displaces
// another or is reached by a new row.
const maxUnreached = 48

// repoRoot is where the list's paths are rooted, seen from this package.
const repoRoot = "../.."

var (
	listedFile  = regexp.MustCompile(`^internal/[a-z0-9]+/[a-z0-9_]+\.go$`)
	identifier  = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)
	benchLine   = regexp.MustCompile(`^(bench/[a-z_]+\.go):([0-9]+)$`)
	testName    = regexp.MustCompile(`^(Test[A-Za-z0-9_]+):?$`)
	reasonNames = []string{"bench", "observer", "string", "invariant", "sbrk"}
)

// TestUnreachedListParses checks the form of unreached.txt without a
// coverage run: every entry names a function its file declares and a
// reason from the closed set, a bench entry the bench/ line that calls
// the function, a string entry the receiver of a String method, an
// invariant entry a test that exists. Whether the list matches what the
// corpus reaches is `make reach`'s check.
func TestUnreachedListParses(t *testing.T) {
	f, err := os.Open(unreachedList)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries := 0
	seen := make(map[string]bool)
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		entries++
		fields := strings.Fields(text)
		if len(fields) < 4 {
			t.Errorf("line %d: want <file> <function> <reason> <detail>, got %q", line, text)
			continue
		}
		file, fn, reason, detail := fields[0], fields[1], fields[2], fields[3]
		if err := checkEntry(file, fn, reason, detail); err != nil {
			t.Errorf("line %d: %s %s: %v", line, file, fn, err)
		}
		key := file + " " + fn + " " + reason
		if reason == "string" {
			key += " " + detail
		}
		if seen[key] {
			t.Errorf("line %d: %s %s is listed twice", line, file, fn)
		}
		seen[key] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if entries > maxUnreached {
		t.Errorf("%s lists %d functions, want at most %d", unreachedList, entries, maxUnreached)
	}
}

// checkEntry checks one entry of the list.
func checkEntry(file, fn, reason, detail string) error {
	if !listedFile.MatchString(file) || strings.HasSuffix(file, "_test.go") {
		return fmt.Errorf("not a non-test Go file under internal/")
	}
	if !identifier.MatchString(fn) {
		return fmt.Errorf("%q is not a function name", fn)
	}
	src, err := os.ReadFile(filepath.Join(repoRoot, file))
	if err != nil {
		return err
	}
	decl := regexp.MustCompile(`(?m)^func (\([^)]*\) )?` + fn + `[\[(]`)
	if !decl.Match(src) {
		return fmt.Errorf("the file declares no function %s", fn)
	}
	switch reason {
	case "bench":
		m := benchLine.FindStringSubmatch(detail)
		if m == nil {
			return fmt.Errorf("bench detail %q is not a bench/ file:line", detail)
		}
		lines, err := os.ReadFile(filepath.Join(repoRoot, m[1]))
		if err != nil {
			return err
		}
		n, _ := strconv.Atoi(m[2])
		all := strings.Split(string(lines), "\n")
		if n < 1 || n > len(all) || !strings.Contains(all[n-1], fn) {
			return fmt.Errorf("%s does not call %s", detail, fn)
		}
	case "string":
		recv := regexp.MustCompile(`(?m)^func \(\w+ \*?` + regexp.QuoteMeta(detail) + `\) String\(\) string`)
		if fn != "String" || !recv.Match(src) {
			return fmt.Errorf("no String method on %q in the file", detail)
		}
	case "invariant":
		m := testName.FindStringSubmatch(detail)
		if m == nil {
			return fmt.Errorf("invariant detail %q does not start with the test that reaches it", detail)
		}
		if !testExists(m[1]) {
			return fmt.Errorf("no test %s", m[1])
		}
	case "observer", "sbrk":
	default:
		return fmt.Errorf("reason %q is not one of %s", reason, strings.Join(reasonNames, ", "))
	}
	return nil
}

// testExists reports whether a _test.go file under internal/ or cmd/
// declares the test function name.
func testExists(name string) bool {
	decl := regexp.MustCompile(`(?m)^func ` + name + `\(t \*testing\.T\)`)
	for _, dir := range []string{"internal", "cmd"} {
		files, _ := filepath.Glob(filepath.Join(repoRoot, dir, "*", "*_test.go"))
		for _, f := range files {
			if src, err := os.ReadFile(f); err == nil && decl.Match(src) {
				return true
			}
		}
	}
	return false
}
