// Command bench is the repository benchmark: it builds cmd/manasim, runs
// five named workloads as child processes the way a user would, and
// reports what that user waits for — wall clock, CPU, peak RSS, simulated
// events per second and complete simulations per second — then runs each
// workload once more in-process with spans around every public call, so
// each end-to-end number has a per-layer table under it. README.md in
// this directory defines every metric and workload.
//
//	go run ./bench                             # all workloads, full sizes
//	go run ./bench -smoke                      # 1/16 rank counts, 2 reps
//	go run ./bench -workloads wide-idle -reps 7 -o bench/out/a.json
//	go run ./bench -compare old.json new.json
//	go run ./bench --workload wide-idle --seed 3 --seconds 15 --trace 0
//
// The last form is the harness contract recorded in BENCHMARK.json: one
// workload, a time-boxed loop, and one JSON result object as the last
// line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		one      = flag.String("workload", "", "harness mode: run this one workload and print a JSON result line")
		seed     = flag.Uint64("seed", 42, "workload seed: manasim -seed and the generated fault plan derive from it")
		seconds  = flag.Float64("seconds", 0, "harness mode: length of the timed loop")
		trace    = flag.Int("trace", 0, "harness mode: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced pass")
		names    = flag.String("workloads", "", "comma-separated workloads to run (default: all)")
		reps     = flag.Int("reps", 0, "timed invocations per workload (default: the workload's own count)")
		smoke    = flag.Bool("smoke", false, "1/16 rank counts and 2 reps: every check, none of the wait")
		outFile  = flag.String("o", "", "results file (default bench/out/results.json)")
		compare  = flag.Bool("compare", false, "compare two results files: -compare old.json new.json")
		selected []workload
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two results files")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}

	want := *names
	if *one != "" {
		want = *one
	}
	wanted := strings.Split(want, ",")
	for _, w := range workloads {
		if want == "" || slices.Contains(wanted, w.name) {
			if *smoke {
				w = w.smoke()
			}
			selected = append(selected, w)
		}
	}
	if want != "" && len(selected) != len(wanted) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload in %q\n", want)
		return 2
	}

	r, err := newRunner(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer r.close()
	if *smoke {
		r.setupReps = 2
	}

	if *one != "" {
		return harness(r, selected[0], *seconds, *trace == 1)
	}

	all := results{Host: hostShape(filepath.Join(r.root, "bench")), Seed: *seed, Smoke: *smoke}
	fmt.Printf("host: %s, nproc=%d GOMAXPROCS=%d, %s, linux %s, bench tree %.12s, seed %d\n",
		all.Host.CPU, all.Host.NumCPU, all.Host.GOMAXPROCS, all.Host.Go, all.Host.Kernel, all.Host.BenchTree, *seed)
	var done []*measured
	for _, w := range selected {
		n := w.reps
		if *smoke {
			n = 2
		}
		if *reps > 0 {
			n = *reps
		}
		m, err := r.measure(w, n, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		done = append(done, m)
	}
	ok := true
	for _, m := range done {
		if err := r.trace(m); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		m.print(os.Stdout)
		ok = ok && m.correct()
		all.Workloads = append(all.Workloads, m.workloadResult)
	}
	path := *outFile
	if path == "" {
		path = filepath.Join(r.out, "results.json")
	}
	data, err := json.MarshalIndent(all, "", " ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("\nresults: %s, traces: %s\n", path, filepath.Join(r.out, "trace-<workload>.json"))
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: a correctness check failed")
		return 1
	}
	return 0
}

// harness runs one workload under the BENCHMARK.json contract and prints
// the result object as the last line of standard output.
func harness(r *runner, w workload, seconds float64, traced bool) int {
	reps := w.reps // used when no -seconds is given
	if traced {
		// The traced pass needs the untraced wall_s and report to compare
		// against; three invocations give it a median.
		reps, seconds = minReps, 0
	}
	res, err := r.measure(w, reps, seconds)
	if err == nil && traced {
		err = r.trace(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	res.print(os.Stderr)
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, map[string]value{}}
	if traced {
		for _, d := range perLayer {
			if !d.suiteOnly {
				line.Metrics[d.name] = res.PerLayer[d.name]
			}
		}
	} else {
		for _, d := range endToEnd {
			line.Metrics[d.name] = value{res.EndToEnd[d.name].Value, d.unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// A failed check is reported in the line, not the exit status: the
	// harness reads correct and failed, and takes non-zero to mean no result.
	fmt.Println(string(data))
	return 0
}
