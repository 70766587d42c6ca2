package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// host is the shape of the machine a results file was measured on;
// numbers from different shapes are not comparable.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	// BenchTree is a SHA-256 over the benchmark's own .go files, so a
	// results file says which benchmark code produced it.
	BenchTree string `json:"bench_tree"`
}

func hostShape(benchDir string) host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(data))
	}
	sum := sha256.New()
	// WalkDir visits in lexical order, so the hash is deterministic. An
	// unreadable tree leaves the hash of what was readable.
	_ = filepath.WalkDir(benchDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if d.Name() == "out" {
				return filepath.SkipDir
			}
			return nil
		}
		if data, err := os.ReadFile(path); err == nil && strings.HasSuffix(path, ".go") {
			rel, _ := filepath.Rel(benchDir, path)
			fmt.Fprintf(sum, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
			sum.Write(data)
		}
		return nil
	})
	h.BenchTree = fmt.Sprintf("%x", sum.Sum(nil))
	return h
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// checked records the outcome of one named correctness check.
func checked(name string, err error) check {
	if err != nil {
		return check{Name: name, Detail: err.Error()}
	}
	return check{Name: name, OK: true}
}

type workloadResult struct {
	Name        string           `json:"name"`
	Why         string           `json:"why"`
	Args        []string         `json:"args"`
	ReportFNV64 string           `json:"report_fnv64"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	EndToEnd    map[string]stat  `json:"end_to_end"`
	PerLayer    map[string]value `json:"per_layer,omitempty"`
	Checks      []check          `json:"checks"`
}

func (r *workloadResult) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return r.Failed == 0
}

type results struct {
	Host      host             `json:"host"`
	Seed      uint64           `json:"seed"`
	Smoke     bool             `json:"smoke"`
	Workloads []workloadResult `json:"workloads"`
}

// runner holds where things live for one benchmark process.
type runner struct {
	root string // module root: where go build runs
	out  string // bench/out: results and traces
	work string // bench/out/run-<pid>: binaries and generated inputs, removed on exit
	seed uint64
	// setupReps is how often set-up is repeated; setup_s is the median, so
	// one cold build does not decide it.
	setupReps int
}

// findRoot walks up from the working directory to the module root, so
// the benchmark runs the same from the root (go run ./bench) and from
// its own directory (go test).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "manasim")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: no module root with cmd/manasim above the working directory")
		}
		dir = parent
	}
}

func newRunner(seed uint64) (*runner, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	r := &runner{root: root, out: filepath.Join(root, "bench", "out"), seed: seed, setupReps: 5}
	r.work = filepath.Join(r.out, fmt.Sprintf("run-%d", os.Getpid()))
	return r, os.MkdirAll(r.work, 0o755)
}

func (r *runner) close() { os.RemoveAll(r.work) }

// setup is everything before the first timed invocation: build manasim
// from source, generate the workload's input files from the seed, and
// one small untimed invocation that pages the binary in and proves the
// generated spec loads. Each repetition builds to a fresh path so the
// link is not skipped.
func (r *runner) setup(w workload) (bin string, in inputs, secs []float64, err error) {
	dir := filepath.Join(r.work, w.name)
	for i := 0; i < r.setupReps; i++ {
		start := time.Now()
		rep := filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		if err = os.MkdirAll(rep, 0o755); err != nil {
			return
		}
		bin = filepath.Join(rep, "manasim")
		build := exec.Command("go", "build", "-o", bin, "./cmd/manasim")
		build.Dir = r.root
		if out, berr := build.CombinedOutput(); berr != nil {
			err = fmt.Errorf("go build ./cmd/manasim: %w: %s", berr, bytes.TrimSpace(out))
			return
		}
		if in, err = w.generate(rep, r.seed); err != nil {
			return
		}
		spec := in.spec
		if spec == "" {
			spec = "default"
		}
		if _, err = runChild(bin, []string{"-spec", spec, "-ranks", "16", "-steps", "2", "-no-fail"}); err != nil {
			return
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return
}

// minReps is the fewest timed invocations a time-boxed run makes.
const minReps = 3

// measured is one workload after its untraced loop: the result so far,
// and what the traced pass needs to reproduce and explain it.
type measured struct {
	workloadResult
	w     workload
	bin   string
	in    inputs
	first *report
}

// measure is the tracing-off half of a workload: set-up, the closed loop
// of CLI invocations (reps of them, or for about seconds when seconds >
// 0), and the checks on what they printed.
//
// All measuring is done before any tracing: a child's ru_maxrss starts
// from its parent's high-water mark (Linux carries it across exec), so
// once this process has run a 1GB job in-process every child would
// report at least that.
func (r *runner) measure(w workload, reps int, seconds float64) (*measured, error) {
	bin, in, setupSecs, err := r.setup(w)
	if err != nil {
		return nil, err
	}
	m := &measured{workloadResult: workloadResult{Name: w.name, Why: w.why, EndToEnd: map[string]stat{}}, w: w, bin: bin, in: in}
	res := &m.workloadResult
	res.Args = w.args(in, r.seed)
	note := func(name string, err error) { res.Checks = append(res.Checks, checked(name, err)) }

	// One client, back to back. A failed invocation is counted and the
	// loop goes on, so failed_ratio has a denominator.
	var (
		first                    *report
		wall, cpu, rss, evs, rps []float64
		identical, verified      error
	)
	fail := func(keep *error, err error) {
		res.Failed++
		if *keep == nil {
			*keep = err
		}
	}
	loopStart := time.Now()
	for {
		n := res.Attempted
		if seconds > 0 {
			if n >= minReps && time.Since(loopStart).Seconds()+median(wall)/2 >= seconds {
				break
			}
		} else if n >= reps {
			break
		}
		res.Attempted++
		s, err := runChild(bin, res.Args)
		if err != nil {
			fail(&verified, err)
			if res.Failed >= minReps {
				break // a broken binary fails every time; do not time-box that
			}
			continue
		}
		rep, err := w.parse(s.out)
		if err != nil {
			fail(&verified, err)
			continue
		}
		if first == nil {
			first = rep
		}
		if !bytes.Equal(rep.canonical, first.canonical) {
			fail(&identical, fmt.Errorf("invocation %d printed %s, the first %s", res.Attempted, rep.fnv64, first.fnv64))
		} else if w.verify != nil {
			if err := w.verify(rep); err != nil {
				fail(&verified, err)
			}
		}
		wall, cpu, rss = append(wall, s.wall), append(cpu, s.cpu), append(rss, s.rssMB)
		evs = append(evs, float64(rep.events)/s.wall)
		rps = append(rps, float64(w.simulations())/s.wall)
	}
	if first == nil {
		return nil, fmt.Errorf("%s: no invocation produced a report: %w", w.name, verified)
	}
	m.first = first
	res.ReportFNV64 = first.fnv64
	note("every invocation prints byte-identical stdout", identical)
	note("report shows what the workload is named for", verified)

	if w.faults {
		// The paper's transparency property: the recovered job ends in the
		// state the same job reaches with no fault at all.
		clean := in
		clean.faults = ""
		res.Attempted++
		err := func() error {
			s, err := runChild(bin, w.args(clean, r.seed))
			if err != nil {
				return err
			}
			ref, err := parseReport(s.out)
			if err != nil {
				return err
			}
			if ref.fingerprint != first.fingerprint {
				return fmt.Errorf("final fingerprint %s, fault-free run %s", first.fingerprint, ref.fingerprint)
			}
			return nil
		}()
		if err != nil {
			res.Failed++
		}
		note("final fingerprint equals the fault-free run's", err)
	}

	series := map[string][]float64{
		"setup_s": setupSecs, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "sim_events_per_s": evs, "runs_per_s": rps,
	}
	for _, d := range endToEnd {
		s := summarise(d.unit, series[d.name])
		if d.mean {
			// The Go GC makes an invocation's peak RSS bimodal (660 or 840
			// MiB on ckpt-recover), so a median over a handful of invocations
			// flips between the modes and a maximum follows the upper tail;
			// the mean moves least from run to run.
			s.Value = 0
			for _, v := range series[d.name] {
				s.Value += v / float64(len(series[d.name]))
			}
		}
		res.EndToEnd[d.name] = s
	}
	failed := summarise(failedRatio.unit, []float64{float64(res.Failed) / float64(res.Attempted)})
	failed.N = res.Attempted
	res.EndToEnd[failedRatio.name] = failed

	return m, nil
}

// trace is the tracing-on half: the workload once more in-process, with
// spans, probes and the checks that need the simulator's internals.
func (r *runner) trace(m *measured) error {
	startup := make([]float64, 0, 9)
	for range cap(startup) {
		s, err := runChild(m.bin, []string{"-ranks", "1", "-steps", "0"})
		if err != nil {
			return err
		}
		startup = append(startup, s.wall)
	}
	layer, checks, err := traceWorkload(m.w, m.in, r.seed, m.first, m.EndToEnd["wall_s"].Value,
		filepath.Join(r.out, "trace-"+m.Name+".json"))
	if err != nil {
		return fmt.Errorf("%s: traced pass: %w", m.Name, err)
	}
	layer["cli.startup_s"] = median(startup)
	m.Checks = append(m.Checks, checks...)
	m.PerLayer = map[string]value{}
	for _, d := range perLayer {
		m.PerLayer[d.name] = value{layer[d.name], d.unit}
	}
	return nil
}

// print writes every metric of one workload by name with its unit.
func (res *workloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==  report_fnv64=%s  manasim %s\n", res.Name, res.ReportFNV64, strings.Join(res.Args, " "))
	for _, d := range printed {
		s := res.EndToEnd[d.name]
		fmt.Fprintf(w, "  %-18s %14.6g %-9s median=%.6g q1=%.6g q3=%.6g min=%.6g max=%.6g n=%d\n",
			d.name, s.Value, s.Unit, s.Median, s.Q1, s.Q3, s.Min, s.Max, s.N)
	}
	for _, d := range perLayer {
		if v, ok := res.PerLayer[d.name]; ok {
			fmt.Fprintf(w, "  %-34s %16.6g %s\n", d.name, v.Value, v.Unit)
		}
	}
	for _, c := range res.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  %s %s %s\n", status, c.Name, c.Detail)
	}
}
