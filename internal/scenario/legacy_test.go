package scenario

import (
	"fmt"
	"reflect"
	"testing"

	"mana/internal/vtime"
)

// This file pins the compiled "default" and "overlap" library specs
// against verbatim copies of the Go workload generators they replaced
// (internal/rank/workload.go before the scenario engine landed). The
// acceptance bar for the redesign was byte-identical op streams — same
// ops, same jittered durations bit for bit — so every golden report in
// the repo survived the switch untouched.

type legacyConfig struct {
	Ranks       int
	Steps       int
	Seed        uint64
	ComputeMean vtime.Duration
	MsgBytes    uint64
	ReduceBytes uint64
	GroupSize   int
}

func legacyDefaults(ranks, steps int, seed uint64) legacyConfig {
	return legacyConfig{
		Ranks:       ranks,
		Steps:       steps,
		Seed:        seed,
		ComputeMean: 250 * vtime.Microsecond,
		MsgBytes:    64 << 10,
		ReduceBytes: 8 << 10,
	}
}

// legacyDefaultScript is generateDefaultScript as deleted from
// internal/rank/workload.go, retyped onto scenario.Op.
func legacyDefaultScript(id int, cfg legacyConfig) []Op {
	rng := vtime.NewRNG(cfg.Seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15)
	right := (id + 1) % cfg.Ranks
	left := (id - 1 + cfg.Ranks) % cfg.Ranks
	var script []Op
	for step := 0; step < cfg.Steps; step++ {
		dur := vtime.Duration(float64(cfg.ComputeMean) * rng.Jitter(0.3))
		script = append(script, Op{Kind: OpCompute, Dur: dur})
		if cfg.Ranks > 1 {
			if step%4 == 3 {
				script = append(script,
					Op{Kind: OpIsend, Peer: right, Bytes: cfg.MsgBytes, Tag: step},
					Op{Kind: OpRecv, Peer: left, Tag: step},
					Op{Kind: OpWait},
				)
			} else {
				script = append(script,
					Op{Kind: OpSend, Peer: right, Bytes: cfg.MsgBytes, Tag: step},
					Op{Kind: OpRecv, Peer: left, Tag: step},
				)
			}
		}
		if step%3 == 2 {
			script = append(script, Op{Kind: OpAllreduce, Bytes: cfg.ReduceBytes})
		}
		if step%5 == 4 {
			script = append(script, Op{Kind: OpBarrier})
		}
		if step%7 == 6 {
			script = append(script, Op{Kind: OpSbrk, Bytes: 256 << 10})
		}
	}
	return script
}

// legacyOverlapScript is generateOverlapScript as deleted from
// internal/rank/workload.go, retyped onto scenario.Op.
func legacyOverlapScript(id int, cfg legacyConfig) []Op {
	g := cfg.GroupSize
	if g < 2 {
		g = 2
	}
	if g > cfg.Ranks {
		g = cfg.Ranks
	}
	rng := vtime.NewRNG(cfg.Seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15)
	right := (id + 1) % cfg.Ranks
	left := (id - 1 + cfg.Ranks) % cfg.Ranks
	script := []Op{
		{Kind: OpCommSplit, Comm: 0, Color: id / g},
		{Kind: OpCommSplit, Comm: 0, Color: (id + g/2) / g},
	}
	for step := 0; step < cfg.Steps; step++ {
		dur := vtime.Duration(float64(cfg.ComputeMean) * rng.Jitter(0.3))
		script = append(script, Op{Kind: OpCompute, Dur: dur})
		if cfg.Ranks > 1 && step%2 == 1 {
			script = append(script,
				Op{Kind: OpSend, Peer: right, Bytes: cfg.MsgBytes, Tag: step},
				Op{Kind: OpRecv, Peer: left, Tag: step},
			)
		}
		script = append(script, Op{Kind: OpAllreduce, Comm: 1, Bytes: cfg.ReduceBytes})
		dur = vtime.Duration(float64(cfg.ComputeMean) * rng.Jitter(0.3) / 2)
		script = append(script, Op{Kind: OpCompute, Dur: dur})
		script = append(script, Op{Kind: OpBarrier, Comm: 2})
		if step%5 == 4 {
			script = append(script, Op{Kind: OpSbrk, Bytes: 256 << 10})
		}
	}
	return script
}

// diffPrograms compares what rank id resolves from its compiled program
// with the legacy generator's literal script.
func diffPrograms(t *testing.T, label string, id int, got Program, want []Op) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: compiled %d ops, legacy generator produced %d", label, len(got), len(want))
	}
	for i := range want {
		if op := got[i].Resolve(id); op != want[i] {
			t.Fatalf("%s: op %d differs:\n  compiled: %+v\n  legacy:   %+v", label, i, op, want[i])
		}
	}
}

// TestDefaultSpecMatchesLegacyGenerator pins the shipped default spec to
// the deleted generateDefaultScript, op for op and bit for bit, across a
// grid of shapes and seeds (including the 1-rank degenerate case and the
// 8x30 job every golden report uses).
func TestDefaultSpecMatchesLegacyGenerator(t *testing.T) {
	spec, err := Load("default")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		ranks, steps int
		seed         uint64
	}{
		{1, 12, 42}, {2, 7, 1}, {4, 10, 7}, {8, 30, 42}, {8, 30, 7},
		{13, 23, 99}, {64, 9, 0}, {512, 5, 42},
	}
	for _, tc := range cases {
		progs, err := spec.Compile(Params{Ranks: tc.ranks, Steps: tc.steps, Seed: tc.seed})
		if err != nil {
			t.Fatalf("compile(%+v): %v", tc, err)
		}
		cfg := legacyDefaults(tc.ranks, tc.steps, tc.seed)
		for id := 0; id < tc.ranks; id++ {
			label := fmtLabel("default", tc.ranks, tc.steps, tc.seed, 0, id)
			diffPrograms(t, label, id, progs[id], legacyDefaultScript(id, cfg))
		}
	}
}

// TestOverlapSpecMatchesLegacyGenerator pins the shipped overlap spec to
// the deleted generateOverlapScript, including group-size overrides and
// the clamp when the group exceeds the rank count.
func TestOverlapSpecMatchesLegacyGenerator(t *testing.T) {
	spec, err := Load("overlap")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		ranks, steps int
		seed         uint64
		group        int // 0 = the spec's own group (4), matching legacy default
	}{
		{8, 30, 42, 0}, {12, 8, 7, 0}, {64, 6, 11, 8}, {16, 10, 3, 2},
		{3, 9, 5, 4}, {4, 5, 21, 16}, {512, 5, 42, 0},
	}
	for _, tc := range cases {
		progs, err := spec.Compile(Params{Ranks: tc.ranks, Steps: tc.steps, Seed: tc.seed, Group: tc.group})
		if err != nil {
			t.Fatalf("compile(%+v): %v", tc, err)
		}
		cfg := legacyDefaults(tc.ranks, tc.steps, tc.seed)
		cfg.GroupSize = tc.group
		if tc.group == 0 {
			cfg.GroupSize = 4
		}
		for id := 0; id < tc.ranks; id++ {
			label := fmtLabel("overlap", tc.ranks, tc.steps, tc.seed, tc.group, id)
			diffPrograms(t, label, id, progs[id], legacyOverlapScript(id, cfg))
		}
	}
}

func fmtLabel(spec string, ranks, steps int, seed uint64, group, id int) string {
	return fmt.Sprintf("%s ranks=%d steps=%d seed=%d group=%d rank=%d", spec, ranks, steps, seed, group, id)
}

// TestCompileDeterministic is the compile half of the determinism
// property: the same spec and Params compile to deeply equal programs on
// every call.
func TestCompileDeterministic(t *testing.T) {
	for _, name := range Names() {
		spec, err := Load(name)
		if err != nil {
			t.Fatal(err)
		}
		p := Params{Ranks: 16, Steps: 12, Seed: 1234}
		a, err := spec.Compile(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := spec.Compile(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("spec %s: two compilations of the same Params differ", name)
		}
	}
}
