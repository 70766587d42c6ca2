package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict judges one end-to-end metric on one workload. worse is how far
// the new value moved in the metric's bad direction, as a share of the old
// value. A difference is only called when the runs can resolve it: the
// value is a centre estimated from n readings, good to about their
// interquartile spread over the square root of n, and if that exceeds the
// bound on either side while the two sides' ranges overlap, the pair is
// unresolved, not within.
func verdict(d metricDef, old, new stat) (string, float64) {
	if d.bound == 0 { // failed_ratio: absolute, any increase is worse
		switch {
		case new.Value > old.Value:
			return "worse", new.Value - old.Value
		case new.Value < old.Value:
			return "better", new.Value - old.Value
		}
		return "within", 0
	}
	worse := (new.Value - old.Value) / old.Value
	if d.better == "higher" {
		worse = -worse
	}
	overlap := new.Min <= old.Max && old.Min <= new.Max
	switch {
	case max(old.resolution(), new.resolution()) > d.bound && overlap:
		return "unresolved", worse
	case worse > d.bound:
		return "worse", worse
	case -worse > old.spread() && !overlap:
		// Better than the parent's own run-to-run spread, with every new
		// run beating every old one.
		return "better", worse
	}
	return "within", worse
}

// compareFiles prints one row per (end-to-end metric, workload) and
// names every exact quantity that differs. It returns 1 if any row is
// worse or any exact quantity differs, 0 otherwise.
func compareFiles(w io.Writer, oldPath, newPath string) int {
	old, err := loadResults(oldPath)
	if err == nil {
		var cur *results
		if cur, err = loadResults(newPath); err == nil {
			return compare(w, old, cur)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compare(w io.Writer, old, cur *results) int {
	status := 0
	if old.Seed != cur.Seed || old.Smoke != cur.Smoke {
		fmt.Fprintf(w, "seeds or sizes differ (seed %d smoke %v -> seed %d smoke %v): the exact quantities will too\n",
			old.Seed, old.Smoke, cur.Seed, cur.Smoke)
	}
	if old.Host != cur.Host {
		fmt.Fprintf(w, "host shapes differ, timings are not comparable:\n  old %+v\n  new %+v\n", old.Host, cur.Host)
	}
	fmt.Fprintf(w, "%-13s %-17s %13s %13s %24s %24s %6s %8s  %s\n",
		"workload", "metric", "old", "new", "old q1..q3", "new q1..q3", "bound", "change", "verdict")
	for _, nw := range cur.Workloads {
		var ow *workloadResult
		for i := range old.Workloads {
			if old.Workloads[i].Name == nw.Name {
				ow = &old.Workloads[i]
			}
		}
		if ow == nil {
			fmt.Fprintf(w, "%-13s only in the new file\n", nw.Name)
			continue
		}
		for _, d := range printed {
			o, n := ow.EndToEnd[d.name], nw.EndToEnd[d.name]
			v, change := verdict(d, o, n)
			if v == "worse" {
				status = 1
			}
			fmt.Fprintf(w, "%-13s %-17s %13.6g %13.6g %24s %24s %6.2f %+7.1f%%  %s\n", nw.Name, d.name, o.Value, n.Value,
				fmt.Sprintf("%.5g..%.5g", o.Q1, o.Q3), fmt.Sprintf("%.5g..%.5g", n.Q1, n.Q3), d.bound, change*100, v)
		}
		if ow.ReportFNV64 != nw.ReportFNV64 {
			status = 1
			fmt.Fprintf(w, "%-13s exact report_fnv64 differs: %s -> %s\n", nw.Name, ow.ReportFNV64, nw.ReportFNV64)
		}
		for _, d := range perLayer {
			o, hasOld := ow.PerLayer[d.name]
			n, hasNew := nw.PerLayer[d.name]
			if exact(d.name) && hasOld && hasNew && o.Value != n.Value {
				status = 1
				fmt.Fprintf(w, "%-13s exact %s differs: %.0f -> %.0f %s\n", nw.Name, d.name, o.Value, n.Value, d.unit)
			}
		}
	}
	return status
}
