package scenario

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestTraceRoundTrip pins the trace format's core property: writing any
// compiled library spec and reading it back reproduces, as literal ops,
// exactly what each rank resolves from the compiled programs — for
// every op kind the compiler can emit. The programs are compared
// against the materialising oracle too, so the writer is pinned to the
// bytes it produced before programs were shared.
func TestTraceRoundTrip(t *testing.T) {
	for _, name := range Names() {
		spec, err := Load(name)
		if err != nil {
			t.Fatal(err)
		}
		p := Params{Ranks: 6, Steps: 12, Seed: 3}
		progs, err := spec.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		literal := spec.materialise(p)
		var buf, oracle bytes.Buffer
		if err := WriteTrace(&buf, progs); err != nil {
			t.Fatalf("%s: WriteTrace: %v", name, err)
		}
		if err := WriteTrace(&oracle, literal); err != nil {
			t.Fatalf("%s: WriteTrace of the materialised programs: %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), oracle.Bytes()) {
			t.Errorf("spec %s: trace of the compiled programs differs from the trace of the materialised ones", name)
		}
		got, err := ReadTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: ReadTrace: %v", name, err)
		}
		if !reflect.DeepEqual(got, literal) {
			t.Errorf("spec %s: trace round-trip altered the programs", name)
		}
	}
}

// TestTraceWriterDeterministic: same programs, same bytes.
func TestTraceWriterDeterministic(t *testing.T) {
	progs := MustPrograms("overlap", Params{Ranks: 8, Steps: 6, Seed: 5})
	var a, b bytes.Buffer
	if err := WriteTrace(&a, progs); err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(&b, progs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two writes of the same programs differ")
	}
}

// TestTraceReaderToleratesCommentsAndBlanks: traces are text and may be
// annotated by hand.
func TestTraceReaderTolerates(t *testing.T) {
	src := `manatrace v1 ranks=2

# rank 0 does the work
0 compute dur=1000
0 send peer=1 bytes=64 tag=0
1 recv peer=0 tag=0
`
	progs, err := ReadTrace(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 2 || len(progs[0]) != 2 || len(progs[1]) != 1 {
		t.Fatalf("parsed shape %d/%d/%d, want 2 ranks with 2 and 1 ops", len(progs), len(progs[0]), len(progs[1]))
	}
	want := Op{Kind: OpSend, Peer: 1, Bytes: 64, Tag: 0}
	if progs[0][1] != want {
		t.Errorf("op = %+v, want %+v", progs[0][1], want)
	}
}

// TestTraceParseErrorsNameLine pins the error contract: malformed traces
// are rejected with the offending line (or field) named.
func TestTraceParseErrorsNameLine(t *testing.T) {
	cases := []struct {
		label string
		src   string
		want  string
	}{
		{"empty", "", "empty input"},
		{"bad header", "tracefile 1\n", "line 1: bad header"},
		{"bad rank count", "manatrace v1 ranks=zero\n", "line 1: bad rank count"},
		{"rank out of range", "manatrace v1 ranks=2\n5 wait\n", "line 2: rank \"5\" out of range"},
		{"unknown op", "manatrace v1 ranks=1\n0 teleport\n", `line 2: unknown op "teleport"`},
		{"missing field", "manatrace v1 ranks=1\n0 send peer=1 tag=0\n", "line 2: op send: missing field bytes"},
		{"unexpected field", "manatrace v1 ranks=1\n0 wait bytes=4\n", "line 2: op wait: unexpected field bytes"},
		{"malformed field", "manatrace v1 ranks=1\n0 compute dur\n", "line 2: malformed field"},
		{"bad value", "manatrace v1 ranks=1\n0 compute dur=soon\n", `line 2: field dur: bad value "soon"`},
		{"duplicate field", "manatrace v1 ranks=1\n0 sbrk bytes=1 bytes=2\n", "line 2: field bytes: duplicated"},
		{"negative dur", "manatrace v1 ranks=1\n0 compute dur=-5\n", "line 2: op compute: negative dur"},
		{"short line", "manatrace v1 ranks=1\n0\n", "line 2"},
		// Well-formed lines a rank would panic on mid-run.
		{"peer out of range", "manatrace v1 ranks=2\n0 send peer=5 bytes=8 tag=0\n", "line 2: op send: peer 5 out of range [0, 2)"},
		{"wait without isend", "manatrace v1 ranks=2\n0 wait\n", "line 2: op wait: rank 0 has no outstanding isend"},
		{"unminted comm slot", "manatrace v1 ranks=2\n0 barrier comm=3\n", "line 2: op barrier: comm slot 3 out of range"},
		// Well-formed lines that would size an allocation from the input
		// and end the process in the runtime's out-of-memory abort.
		{"absurd rank count", "manatrace v1 ranks=9999999999999\n0 wait\n", "line 1: 9999999999999 ranks in header, limit is 1048576"},
		{"absurd sbrk", "manatrace v1 ranks=1\n0 sbrk bytes=9000000000000000000\n", "line 2: op sbrk: bytes 9000000000000000000 over the limit of 1099511627776"},
		{"negative sbrk", "manatrace v1 ranks=1\n0 sbrk bytes=-1\n", "line 2: op sbrk: negative bytes -1"},
		{"negative payload", "manatrace v1 ranks=2\n0 send peer=1 bytes=-8 tag=0\n", "line 2: op send: negative bytes -8"},
		{"negative tag", "manatrace v1 ranks=2\n0 recv peer=1 tag=-3\n", "line 2: op recv: negative tag -3"},
	}
	for _, tc := range cases {
		_, err := ReadTrace(strings.NewReader(tc.src))
		if err == nil {
			t.Errorf("%s: ReadTrace accepted a malformed trace", tc.label)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want substring %q", tc.label, err, tc.want)
		}
	}
}
