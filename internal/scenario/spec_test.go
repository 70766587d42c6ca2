package scenario

import (
	"strings"
	"testing"
)

// TestParseErrorsNameOffendingField pins the validation contract: every
// rejected spec names the field that caused the rejection.
func TestParseErrorsNameOffendingField(t *testing.T) {
	cases := []struct {
		label string
		src   string
		want  string // substring the error must contain
	}{
		{"missing name", `{"phases":[{"name":"p","ops":[{"op":"barrier"}]}]}`, "name: required"},
		{"no phases", `{"name":"x"}`, "phases"},
		{"empty ops", `{"name":"x","phases":[{"name":"p","ops":[]}]}`, "phases[0].ops"},
		{"unnamed phase", `{"name":"x","phases":[{"ops":[{"op":"barrier"}]}]}`, "phases[0].name"},
		{"unknown op", `{"name":"x","phases":[{"name":"p","ops":[{"op":"teleport"}]}]}`, `phases[0].ops[0].op: unknown op "teleport"`},
		{"unknown json field", `{"name":"x","phases":[{"name":"p","ops":[{"op":"barrier","burst":3}]}]}`, "burst"},
		{"compute without mean", `{"name":"x","phases":[{"name":"p","ops":[{"op":"compute"}]}]}`, "phases[0].ops[0].mean: required"},
		{"bad mean", `{"name":"x","phases":[{"name":"p","ops":[{"op":"compute","mean":"fast"}]}]}`, `phases[0].ops[0].mean: not a positive duration: "fast"`},
		{"mean on ring", `{"name":"x","phases":[{"name":"p","ops":[{"op":"ring","bytes":64,"mean":"1ms"}]}]}`, "phases[0].ops[0].mean: only valid for"},
		{"jitter out of range", `{"name":"x","phases":[{"name":"p","ops":[{"op":"compute","mean":"1ms","jitter":1.5}]}]}`, "phases[0].ops[0].jitter"},
		{"ring without bytes", `{"name":"x","phases":[{"name":"p","ops":[{"op":"ring"}]}]}`, "phases[0].ops[0].bytes: required"},
		{"bad ring mode", `{"name":"x","phases":[{"name":"p","ops":[{"op":"ring","bytes":64,"mode":"rdma"}]}]}`, `phases[0].ops[0].mode: unknown mode "rdma"`},
		{"bad ring dir", `{"name":"x","phases":[{"name":"p","ops":[{"op":"ring","bytes":64,"dir":"up"}]}]}`, `phases[0].ops[0].dir`},
		{"comm out of range", `{"name":"x","phases":[{"name":"p","ops":[{"op":"barrier","comm":1}]}]}`, "phases[0].ops[0].comm: slot 1 out of range"},
		{"comm on ring", `{"name":"x","splits":[{"group":2}],"phases":[{"name":"p","ops":[{"op":"ring","bytes":64,"comm":1}]}]}`, "phases[0].ops[0].comm: only valid for"},
		{"who on barrier", `{"name":"x","phases":[{"name":"p","ops":[{"op":"barrier","who":"root"}]}]}`, "phases[0].ops[0].who: only valid for"},
		{"bad who", `{"name":"x","phases":[{"name":"p","ops":[{"op":"compute","mean":"1ms","who":"masters"}]}]}`, `phases[0].ops[0].who: unknown selector "masters"`},
		{"bytes_jitter on allreduce", `{"name":"x","phases":[{"name":"p","ops":[{"op":"allreduce","bytes":64,"bytes_jitter":0.5}]}]}`, "phases[0].ops[0].bytes_jitter: only valid for point-to-point"},
		{"when without every", `{"name":"x","phases":[{"name":"p","ops":[{"op":"barrier","when":{"offset":1}}]}]}`, "phases[0].ops[0].when.every"},
		{"when offset too large", `{"name":"x","phases":[{"name":"p","ops":[{"op":"barrier","when":{"every":3,"offset":3}}]}]}`, "phases[0].ops[0].when.offset"},
		{"tiny split group", `{"name":"x","splits":[{"group":1}],"phases":[{"name":"p","ops":[{"op":"barrier"}]}]}`, "splits[0].group: must be at least 2"},
		{"conflicting shift", `{"name":"x","splits":[{"group":4,"shift":1,"shift_half_group":true}],"phases":[{"name":"p","ops":[{"op":"barrier"}]}]}`, "splits[0].shift"},
		{"bad checkpoint kind", `{"name":"x","phases":[{"name":"p","ops":[{"op":"barrier"}]}],"checkpoints":[{"kind":"sometime"}]}`, `checkpoints[0].kind: unknown kind "sometime"`},
		{"forming-colls without colls", `{"name":"x","phases":[{"name":"p","ops":[{"op":"barrier"}]}],"checkpoints":[{"kind":"forming-colls"}]}`, "checkpoints[0].colls: must be at least 1"},
		{"colls on plain trigger", `{"name":"x","phases":[{"name":"p","ops":[{"op":"barrier"}]}],"checkpoints":[{"kind":"at","colls":2}]}`, "checkpoints[0].colls: only valid"},
		{"negative steps", `{"name":"x","phases":[{"name":"p","steps":-1,"ops":[{"op":"barrier"}]}]}`, "phases[0].steps"},
		{"negative islands", `{"name":"x","islands":-2,"phases":[{"name":"p","ops":[{"op":"barrier"}]}]}`, "islands: must be non-negative"},
		{"absurd sbrk", `{"name":"x","phases":[{"name":"p","ops":[{"op":"sbrk","bytes":9000000000000000000}]}]}`, `phases[0].ops[0].bytes: must be at most 1099511627776 for op "sbrk" (got 9000000000000000000)`},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.src))
		if err == nil {
			t.Errorf("%s: Parse accepted an invalid spec", tc.label)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name the offending field (want substring %q)", tc.label, err, tc.want)
		}
	}
}

// TestCompileValidatesParams pins compile-time parameter errors.
func TestCompileValidatesParams(t *testing.T) {
	spec, err := Load("default")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Compile(Params{Ranks: 0, Steps: 5}); err == nil || !strings.Contains(err.Error(), "ranks") {
		t.Errorf("zero ranks: err = %v, want a ranks error", err)
	}
	if _, err := spec.Compile(Params{Ranks: MaxRanks + 1, Steps: 5}); err == nil || !strings.Contains(err.Error(), "ranks must be at most 1048576") {
		t.Errorf("absurd ranks: err = %v, want a ranks error naming the limit", err)
	}
	if _, err := spec.Compile(Params{Ranks: 4, Steps: -1}); err == nil || !strings.Contains(err.Error(), "steps") {
		t.Errorf("negative steps: err = %v, want a steps error", err)
	}
	if _, err := spec.Compile(Params{Ranks: 4, Steps: 5, Group: 1}); err == nil || !strings.Contains(err.Error(), "group") {
		t.Errorf("tiny group: err = %v, want a group error", err)
	}
	mw, err := Load("master-worker")
	if err != nil {
		t.Fatal(err)
	}
	mw.Phases[0].Ops[0].Root = 9
	if _, err := mw.Compile(Params{Ranks: 4, Steps: 5}); err == nil || !strings.Contains(err.Error(), "root") {
		t.Errorf("out-of-range root: err = %v, want a root error", err)
	}
}

// TestLibraryShape pins the shipped spec library: the expected set of
// names, file/name agreement, and that every spec compiles at a spread of
// job sizes including the smoke-matrix shape (512 ranks).
func TestLibraryShape(t *testing.T) {
	want := []string{"bursty-alltoall", "default", "master-worker", "overlap", "pipeline", "stencil"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("library has %d specs %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("library names = %v, want %v", got, want)
		}
	}
	for _, name := range got {
		spec, err := Load(name)
		if err != nil {
			t.Fatalf("Load(%q): %v", name, err)
		}
		if spec.Name != name {
			t.Errorf("spec file %s.json declares name %q; they must agree", name, spec.Name)
		}
		if spec.Description == "" {
			t.Errorf("spec %q: missing description", name)
		}
		for _, p := range []Params{
			{Ranks: 1, Steps: 3, Seed: 1},
			{Ranks: 8, Steps: 30, Seed: 42},
			{Ranks: 512, Steps: 5, Seed: 42},
		} {
			progs, err := spec.Compile(p)
			if err != nil {
				t.Errorf("spec %q at %+v: %v", name, p, err)
				continue
			}
			if len(progs) != p.Ranks {
				t.Errorf("spec %q at %+v: %d programs", name, p, len(progs))
			}
		}
		if !IsLibrary(name) {
			t.Errorf("IsLibrary(%q) = false", name)
		}
	}
	if IsLibrary("no-such-spec") {
		t.Error("IsLibrary accepted an unknown name")
	}
	if _, err := Load("no-such-spec"); err == nil || !strings.Contains(err.Error(), "default") {
		t.Errorf("Load of unknown spec: err = %v, want error listing the library", err)
	}
}

// TestLibrarySpecsAreSPMD verifies that on every library spec all ranks
// agree on the per-communicator collective sequence (kind, comm slot and
// payload in the same order), which is what MPI requires and what the
// coordinator's collective matching assumes.
func TestLibrarySpecsAreSPMD(t *testing.T) {
	type collective struct {
		kind  OpKind
		comm  int
		bytes uint64
	}
	for _, name := range Names() {
		progs := MustPrograms(name, Params{Ranks: 12, Steps: 10, Seed: 9})
		var ref []collective
		for id, prog := range progs {
			var colls []collective
			for pc := range prog {
				switch op := prog[pc].Resolve(id); op.Kind {
				case OpBarrier, OpAllreduce, OpCommSplit:
					c := collective{kind: op.Kind, comm: op.Comm, bytes: op.Bytes}
					// Colours legitimately differ per rank; only the split's
					// position and parent must agree.
					colls = append(colls, c)
				}
			}
			if id == 0 {
				ref = colls
				continue
			}
			if len(colls) != len(ref) {
				t.Fatalf("spec %s: rank %d runs %d collectives, rank 0 runs %d", name, id, len(colls), len(ref))
			}
			for i := range ref {
				if colls[i] != ref[i] {
					t.Fatalf("spec %s: rank %d collective %d = %+v, rank 0 has %+v", name, id, i, colls[i], ref[i])
				}
			}
		}
	}
}

// TestGroupOverrideOnlyAffectsSplitSpecs pins UsesGroup: the CLI uses it
// to reject -group on specs with no comm-splits.
func TestGroupOverrideOnlyAffectsSplitSpecs(t *testing.T) {
	for name, want := range map[string]bool{
		"default": false, "overlap": true, "stencil": false,
		"master-worker": false, "bursty-alltoall": false, "pipeline": false,
	} {
		spec, err := Load(name)
		if err != nil {
			t.Fatal(err)
		}
		if spec.UsesGroup() != want {
			t.Errorf("spec %q: UsesGroup = %v, want %v", name, spec.UsesGroup(), want)
		}
	}
}
