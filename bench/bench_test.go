package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mana/internal/faultplan"
	"mana/internal/scenario"
)

func testRunner(t *testing.T, seed uint64) *runner {
	t.Helper()
	r, err := newRunner(seed)
	if err != nil {
		t.Fatal(err)
	}
	r.setupReps = 1
	t.Cleanup(r.close)
	return r
}

// TestSmoke is `go run ./bench -smoke` under go test: all five workloads
// at 1/16 rank count, two invocations each, the traced pass and every
// correctness check. The full sizes are never run here.
func TestSmoke(t *testing.T) {
	r := testRunner(t, 42)
	for _, w := range workloads {
		res, err := r.measure(w.smoke(), 2, 0)
		if err == nil {
			err = r.trace(res)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Checks {
			if !c.OK {
				t.Errorf("%s: %s: %s", w.name, c.Name, c.Detail)
			}
		}
		if res.Failed != 0 {
			t.Errorf("%s: %d of %d invocations failed", w.name, res.Failed, res.Attempted)
		}
		for _, d := range endToEnd {
			if s := res.EndToEnd[d.name]; s.Value <= 0 || s.Unit != d.unit {
				t.Errorf("%s: end-to-end %s = %+v", w.name, d.name, s)
			}
		}
		for _, d := range perLayer {
			if _, ok := res.PerLayer[d.name]; !ok {
				t.Errorf("%s: per-layer %s missing", w.name, d.name)
			}
		}
		if _, err := os.Stat(filepath.Join(r.out, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		// Each workload's own layer must be busy in the traced pass, and
		// the restart layer idle everywhere but on ckpt-recover.
		switch w.name {
		case "ckpt-recover":
			if res.PerLayer["coordinator.restart_attempts"].Value < 4 || res.PerLayer["coordinator.restart_s"].Value <= 0 {
				t.Errorf("ckpt-recover: restart layer idle: %+v", res.PerLayer["coordinator.restart_attempts"])
			}
		case "sweep-grid":
			if res.PerLayer["fleet.spec_compiles"].Value != 10 {
				t.Errorf("sweep-grid: spec compiles = %v", res.PerLayer["fleet.spec_compiles"].Value)
			}
		default:
			if res.PerLayer["coordinator.restart_attempts"].Value != 0 {
				t.Errorf("%s: unexpected restarts", w.name)
			}
		}
	}
}

// TestGenerator pins the input generator: same seed, same bytes; every
// file parses; and ckpt-recover's plan is recoverable — its final
// fingerprint equals the fault-free run's — on the default seed and on a
// held-out one.
func TestGenerator(t *testing.T) {
	for _, w := range workloads {
		a, b := t.TempDir(), t.TempDir()
		ina, err := w.generate(a, 42)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.generate(b, 42); err != nil {
			t.Fatal(err)
		}
		files, _ := filepath.Glob(filepath.Join(a, "*.json"))
		if want := btoi(w.ckpts != nil) + btoi(w.faults); len(files) != want {
			t.Errorf("%s: generated %d files, want %d", w.name, len(files), want)
		}
		for _, f := range files {
			da, _ := os.ReadFile(f)
			db, _ := os.ReadFile(filepath.Join(b, filepath.Base(f)))
			if !bytes.Equal(da, db) || len(da) == 0 {
				t.Errorf("%s: %s differs between two generations from seed 42", w.name, filepath.Base(f))
			}
			switch f {
			case ina.spec:
				spec, err := scenario.Parse(da)
				if err != nil {
					t.Errorf("%s: %v", w.name, err)
				} else if len(spec.Checkpoints) != len(w.ckpts) {
					t.Errorf("%s: spec has %d checkpoint entries, want %d", w.name, len(spec.Checkpoints), len(w.ckpts))
				}
			case ina.faults:
				if _, err := faultplan.Parse(da); err != nil {
					t.Errorf("%s: %v", w.name, err)
				}
			}
		}
		if !w.faults {
			continue
		}
		other, err := w.generate(t.TempDir(), 7)
		if err != nil {
			t.Fatal(err)
		}
		da, _ := os.ReadFile(ina.faults)
		db, _ := os.ReadFile(other.faults)
		if bytes.Equal(da, db) {
			t.Errorf("%s: seeds 42 and 7 generate the same fault plan", w.name)
		}
		for _, seed := range []uint64{42, 7} {
			res, err := testRunner(t, seed).measure(w.smoke(), 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() {
				t.Errorf("%s seed %d: %+v", w.name, seed, res.Checks)
			}
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package
// saying the same thing.
func TestBenchmarkJSON(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type m struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bm struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.name || bm.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, bm.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []m, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i] != (m{d.name, d.unit, d.better, d.bound}) {
				t.Errorf("%s %d: %+v, want %+v", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", bm.EndToEnd, endToEnd)
	var gated []metricDef
	for _, d := range perLayer {
		if !d.suiteOnly {
			gated = append(gated, d)
		}
	}
	same("per_layer", bm.PerLayer, gated)
}

func TestSummarise(t *testing.T) {
	// statistics.quantiles([2.1, 2.0, 2.4, 2.2, 2.3, 2.9, 2.05, 2.15, 2.25, 2.35], n=4)
	s := summarise("s", []float64{2.1, 2.0, 2.4, 2.2, 2.3, 2.9, 2.05, 2.15, 2.25, 2.35})
	for _, c := range []struct{ got, want float64 }{{s.Q1, 2.0875}, {s.Median, 2.225}, {s.Q3, 2.3625}, {s.Min, 2.0}, {s.Max, 2.9}} {
		if d := c.got - c.want; d > 1e-9 || d < -1e-9 {
			t.Errorf("summarise = %+v, want quartiles 2.0875 2.225 2.3625", s)
		}
	}
	if one := summarise("s", []float64{3}); one.Median != 3 || one.Q1 != 3 || one.Q3 != 3 || one.N != 1 {
		t.Errorf("single sample: %+v", one)
	}
}

func TestCompare(t *testing.T) {
	st := func(med, iqr float64) stat {
		return stat{Unit: "s", Value: med, Median: med, Q1: med - iqr/2, Q3: med + iqr/2, Min: med - iqr, Max: med + iqr, N: 8}
	}
	wall := endToEnd[1]
	evs := endToEnd[4]
	for _, c := range []struct {
		d        metricDef
		old, new stat
		want     string
	}{
		{wall, st(2.0, 0.04), st(2.05, 0.04), "within"},
		{wall, st(2.0, 0.04), st(2.6, 0.04), "worse"},
		{wall, st(2.0, 0.04), st(1.5, 0.04), "better"},
		{wall, st(2.0, 1.6), st(2.1, 0.04), "unresolved"},
		{evs, st(1e6, 1e4), st(0.7e6, 1e4), "worse"},
		{evs, st(1e6, 1e4), st(1.4e6, 1e4), "better"},
		{failedRatio, stat{Value: 0}, stat{Value: 0.1}, "worse"},
		{failedRatio, stat{Value: 0}, stat{Value: 0}, "within"},
	} {
		if got, _ := verdict(c.d, c.old, c.new); got != c.want {
			t.Errorf("verdict(%s, %v -> %v) = %s, want %s", c.d.name, c.old.Value, c.new.Value, got, c.want)
		}
	}

	mk := func(events float64, fnv string) *results {
		res := workloadResult{Name: "wide-idle", ReportFNV64: fnv, EndToEnd: map[string]stat{}, PerLayer: map[string]value{
			"coordinator.events": {events, "count"}, "model.makespan_ns": {5, "sim_ns"}, "coordinator.run_s": {events / 1e6, "s"},
		}}
		for _, d := range endToEnd {
			res.EndToEnd[d.name] = st(2, 0.04)
		}
		return &results{Seed: 42, Workloads: []workloadResult{res}}
	}
	var out bytes.Buffer
	if code := compare(&out, mk(100, "aa"), mk(100, "aa")); code != 0 || strings.Contains(out.String(), "exact") {
		t.Errorf("identical files: exit %d\n%s", code, out.String())
	}
	out.Reset()
	code := compare(&out, mk(100, "aa"), mk(101, "bb"))
	if code != 1 || !strings.Contains(out.String(), "exact coordinator.events differs") || !strings.Contains(out.String(), "exact report_fnv64 differs") {
		t.Errorf("changed simulated statistic not named: exit %d\n%s", code, out.String())
	}
	if strings.Contains(out.String(), "coordinator.run_s") {
		t.Errorf("a host-time layer metric was diffed exactly:\n%s", out.String())
	}
}
