// Command isolint enforces two structural rules on internal/ that code
// review alone would let rot.
//
// Rule 1, the fleet-mode isolation audit: no new package-level mutable
// state under internal/. Concurrent simulations
// in one process (internal/fleet) are only byte-identical to standalone
// runs because every run's state hangs off its own Coordinator — a
// package-level var is shared by all of them and would either race or,
// worse, deterministically couple runs. The lint makes that audit a CI
// gate instead of a code-review hope.
//
// Top-level `var` declarations are flagged; `const` and type/func
// declarations are not. The few pre-existing vars that are provably
// safe are allowlisted with their justification; an allowlist entry
// that no longer matches anything is itself an error, so the list
// cannot rot.
//
// Rule 2, the single-owner audit: the structs named in lockFree —
// per-rank and per-run state read and written on every simulated event,
// and owned by exactly one goroutine at a time (see vtime.Clock) — declare no
// field of a sync or sync/atomic type. An uncontended lock there is
// pure per-event cost, and nothing else would notice one creeping back.
// A lockFree entry naming a struct that no longer exists is an error
// too.
//
// Usage:
//
//	go run ./cmd/isolint [dir]   # dir defaults to ./internal
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// allowed maps "package.var" to the reason it is safe to share across
// concurrent runs. Nothing mutable belongs here — only vars that are
// written once before main starts and read-only forever after.
var allowed = map[string]string{
	"scenario.libraryFS":                  "embed.FS of the spec library, read-only by construction",
	"memsim.kindNames":                    "region-kind name table, initialised once and only read",
	"fnv1a.zeroPow":                       "FNV prime-power table, filled once by init and only read (a pure function of its index)",
	"rank.splitProcess":                   "the split-process memory map every rank is built from, immutable once memsim.AddressSpace.Layout returns it",
	"rank.stateRegion":                    "address of app.state in that map, a pure function of it",
	"coordinator.ErrRestartFault":         "errors.New sentinel, written once at init and only compared",
	"ckptstore.ErrNoVerifiableGeneration": "errors.New sentinel, written once at init and only compared",
	"coordinator.ErrCollectiveMismatch":   "errors.New sentinel, written once at init and only compared",
	"coordinator.ErrNoCheckpoint":         "errors.New sentinel, written once at init and only compared",
	"fleet.ErrRestartsExhausted":          "errors.New sentinel, written once at init and only compared",
	"storage.defaultRatios":               "compressibility-default table, initialised once and only read",
}

// lockFree maps "package.Struct" to why it must stay free of
// synchronisation fields.
var lockFree = map[string]string{
	"vtime.Clock":         "one word per rank, read and written on every event by the goroutine driving the rank",
	"vtime.EventQueue":    "one per run, pushed and popped on every event by the run's single goroutine",
	"netsim.Network":      "one per run, driven by the run's single goroutine on every send and receive",
	"memsim.AddressSpace": "written on every workload step by the goroutine driving the rank",
	"memsim.Region":       "immutable once handed out; layouts share them across the ranks of a run and the runs of a fleet",
	"memsim.liveRegion":   "belongs to one AddressSpace; what it shares (its descriptor, frozen pages) is read-only",
	"memsim.Mappings":     "one per job, read and extended on every mapping by the goroutine driving the job's ranks",
	"memsim.contents":     "a live region's private page table and dirtiness, written on every workload step",
	"memsim.page":         "written in place only while one live region owns it, and no owned page outlives its run; a frozen page is shared read-only by descriptors and images",
	"virtid.Table":        "per-rank, translated on every MPI call by the goroutine driving the rank",
	"virtid.window":       "one kind's slots of a virtid.Table, written on every request post and wait",
}

// finding is one violation: a package-level var outside the allowlist,
// or (field != "") a synchronisation field on a lockFree struct.
type finding struct {
	pos   token.Position
	name  string // "package.var" or "package.Struct"
	field string // rule 2: the offending field and its type
}

// syncPackages are the import paths whose types rule 2 forbids.
var syncPackages = map[string]bool{"sync": true, "sync/atomic": true}

// syncNames returns the names this file refers to the sync packages by.
func syncNames(file *ast.File) map[string]bool {
	names := make(map[string]bool)
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if !syncPackages[path] {
			continue
		}
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		names[name] = true
	}
	return names
}

// usesSync reports whether a field's type expression mentions a type
// from one of the sync packages, at any depth (a pointer to, slice of,
// or generic instantiation of one counts).
func usesSync(expr ast.Expr, names map[string]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if pkg, ok := sel.X.(*ast.Ident); ok && names[pkg.Name] {
				found = true
			}
		}
		return !found
	})
	return found
}

// syncFields returns one finding per field of the struct whose type
// mentions a sync package.
func syncFields(fset *token.FileSet, key string, st *ast.StructType, names map[string]bool) []finding {
	var findings []finding
	for _, f := range st.Fields.List {
		if !usesSync(f.Type, names) {
			continue
		}
		label := "(embedded)"
		if len(f.Names) > 0 {
			label = f.Names[0].Name
		}
		findings = append(findings, finding{
			pos: fset.Position(f.Pos()), name: key,
			field: label + " " + types.ExprString(f.Type),
		})
	}
	return findings
}

// scan walks every non-test Go file under root and returns the
// package-level var declarations outside the allowlist and the
// synchronisation fields on lockFree structs, plus the set of allowlist
// and lockFree keys that matched (so stale entries can be reported).
func scan(root string) (findings []finding, matched map[string]bool, err error) {
	fset := token.NewFileSet()
	matched = make(map[string]bool)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		names := syncNames(file)
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			if gd.Tok == token.TYPE {
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					key := file.Name.Name + "." + ts.Name.Name
					st, isStruct := ts.Type.(*ast.StructType)
					if _, listed := lockFree[key]; !listed || !isStruct {
						continue
					}
					matched[key] = true
					findings = append(findings, syncFields(fset, key, st, names)...)
				}
				continue
			}
			if gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, ident := range vs.Names {
					if ident.Name == "_" {
						continue
					}
					key := file.Name.Name + "." + ident.Name
					if _, ok := allowed[key]; ok {
						matched[key] = true
						continue
					}
					findings = append(findings, finding{pos: fset.Position(ident.Pos()), name: key})
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].pos, findings[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return findings, matched, nil
}

// report renders scan results as diagnostics and reports whether the
// tree is clean.
func report(w *os.File, findings []finding, matched map[string]bool) bool {
	clean := true
	for _, f := range findings {
		clean = false
		if f.field != "" {
			fmt.Fprintf(w, "isolint: %s: %s declares synchronisation field %q: %s "+
				"(single-owner state takes no lock; see the ownership rule on vtime.Clock)\n",
				f.pos, f.name, f.field, lockFree[f.name])
			continue
		}
		fmt.Fprintf(w, "isolint: %s: package-level var %s: "+
			"per-run state must hang off the Coordinator/Engine so concurrent fleet runs stay isolated "+
			"(if this is write-once read-only, allowlist it in cmd/isolint with a justification)\n",
			f.pos, f.name)
	}
	var stale []string
	for key := range allowed {
		if !matched[key] {
			stale = append(stale, key)
		}
	}
	for key := range lockFree {
		if !matched[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		clean = false
		fmt.Fprintf(w, "isolint: entry %q matches nothing — remove it from cmd/isolint\n", key)
	}
	return clean
}

func main() {
	root := "./internal"
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	findings, matched, err := scan(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "isolint: %v\n", err)
		os.Exit(2)
	}
	if !report(os.Stderr, findings, matched) {
		os.Exit(1)
	}
	fmt.Printf("isolint: %s clean — no package-level mutable state outside the allowlist, no lock on single-owner state\n", root)
}
