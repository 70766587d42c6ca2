package fleet

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"mana/internal/coordinator"
	"mana/internal/storage"
	"mana/internal/virtid"
	"mana/internal/vtime"
)

// Sweep describes a grid of runs: the cross product of the dimension
// slices, each cell a full simulation. Base supplies every parameter
// the grid does not vary (steps, seed, kernel, failure policy); its
// Spec, Ranks, Virtid, Incremental and CkptAt fields are ignored — the
// grid sets them per cell.
type Sweep struct {
	// Specs are library names or JSON file paths, resolved through the
	// engine's spec cache.
	Specs []string
	Ranks []int
	// CkptAt values anchor each cell's checkpoint policy.
	CkptAt []time.Duration
	// Virtids are implementation names for virtid.ParseImpl
	// ("sharded", "mutex").
	Virtids     []string
	Incremental []bool
	// Storage values are built-in profile names or JSON file paths
	// (storage.Load); empty runs one storage point per cell taken from
	// Base.Storage.
	Storage []string
	Base    Job
	// PoolWorkers bounds how many cells run concurrently
	// (<= 0: GOMAXPROCS).
	PoolWorkers int
}

// Cell is one completed grid cell: its coordinates, the fingerprint of
// its full deterministic output (restart notices + report, hashed with
// FNV-64a exactly as the bytes a standalone manasim run would print),
// and its headline metrics. The hash makes cross-mode byte-identity
// checkable from the aggregate alone.
type Cell struct {
	Spec        string `json:"spec"`
	Ranks       int    `json:"ranks"`
	CkptAt      string `json:"ckpt_at"`
	Virtid      string `json:"virtid"`
	Incremental bool   `json:"incremental"`
	// Storage is the cell's storage coordinate ("" when the sweep does
	// not vary storage and the base job's pipeline applies).
	Storage string `json:"storage,omitempty"`

	ReportFNV64 string `json:"report_fnv64"`
	ReportBytes int    `json:"report_bytes"`

	MakespanNs  int64  `json:"makespan_ns"`
	Events      uint64 `json:"events"`
	Checkpoints int    `json:"checkpoints"`
	Restarts    int    `json:"restarts"`
	ImageBytes  uint64 `json:"image_bytes"`
	// FallbackDepth and LostWorkNs summarise recovery cost: the deepest
	// generation fallback any restart in the cell took, and the virtual
	// time re-executed across all of its restarts.
	FallbackDepth int   `json:"fallback_depth"`
	LostWorkNs    int64 `json:"lost_work_ns"`
	// StoredBytes and PFSWaitNs summarise the storage pipeline: bytes
	// shipped to storage after compression, and the virtual time
	// checkpoint writes spent queued behind the contended PFS.
	StoredBytes uint64  `json:"stored_bytes"`
	PFSWaitNs   int64   `json:"pfs_wait_ns"`
	WallMs      float64 `json:"wall_ms"`
}

// Totals aggregates the sweep: how much work ran, how fast, and how
// well the cross-run caches did.
type Totals struct {
	Runs        int     `json:"runs"`
	PoolWorkers int     `json:"pool_workers"`
	WallMs      float64 `json:"wall_ms"`
	RunsPerSec  float64 `json:"runs_per_sec"`
	// SpecCompiles is the compile cache's miss count over the whole
	// sweep — deterministic: one per distinct (spec, ranks, steps, seed)
	// the grid touches.
	SpecCompiles uint64 `json:"spec_compiles"`
}

// SweepResult is the machine-readable aggregate: one entry per cell in
// deterministic grid order (spec, ranks, ckpt-at, virtid, incremental —
// slowest to fastest varying), plus fleet totals.
type SweepResult struct {
	Cells  []Cell `json:"cells"`
	Totals Totals `json:"totals"`
}

// cellJob pairs a grid cell's coordinates with its ready-to-run config.
type cellJob struct {
	cell Cell
	job  Job
}

// enumerate expands the grid into cells in deterministic nested order
// and resolves each cell's spec and virtid, failing fast on an invalid
// dimension value before anything runs.
func (e *Engine) enumerate(s Sweep) ([]cellJob, error) {
	switch {
	case len(s.Specs) == 0:
		return nil, fmt.Errorf("fleet: sweep has no specs")
	case len(s.Ranks) == 0:
		return nil, fmt.Errorf("fleet: sweep has no ranks")
	case len(s.CkptAt) == 0:
		return nil, fmt.Errorf("fleet: sweep has no ckpt-at values")
	case len(s.Virtids) == 0:
		return nil, fmt.Errorf("fleet: sweep has no virtid values")
	case len(s.Incremental) == 0:
		return nil, fmt.Errorf("fleet: sweep has no incremental values")
	}
	// The storage dimension is optional: absent, every cell runs the base
	// job's pipeline. Named points resolve once each (profile or file).
	storageNames := s.Storage
	if len(storageNames) == 0 {
		storageNames = []string{""}
	}
	storageSpecs := make(map[string]*storage.Spec, len(storageNames))
	for _, name := range storageNames {
		if name == "" {
			continue
		}
		if _, ok := storageSpecs[name]; ok {
			continue
		}
		sp, err := storage.Load(name)
		if err != nil {
			return nil, fmt.Errorf("fleet: sweep storage %q: %w", name, err)
		}
		storageSpecs[name] = sp
	}
	cells := make([]cellJob, 0, len(s.Specs)*len(s.Ranks)*len(s.CkptAt)*len(s.Virtids)*len(s.Incremental)*len(storageNames))
	for _, name := range s.Specs {
		spec, err := e.LoadSpec(name)
		if err != nil {
			return nil, fmt.Errorf("fleet: sweep spec %q: %w", name, err)
		}
		for _, ranks := range s.Ranks {
			for _, at := range s.CkptAt {
				for _, vname := range s.Virtids {
					impl, err := virtid.ParseImpl(vname)
					if err != nil {
						return nil, fmt.Errorf("fleet: sweep virtid: %w", err)
					}
					for _, incr := range s.Incremental {
						for _, sname := range storageNames {
							j := s.Base
							j.Spec = spec
							j.Ranks = ranks
							j.CkptAt = vtime.Time(at)
							j.Virtid = impl
							j.Incremental = incr
							if sname != "" {
								j.Storage = storageSpecs[sname]
							}
							cells = append(cells, cellJob{
								cell: Cell{
									Spec:        name,
									Ranks:       ranks,
									CkptAt:      at.String(),
									Virtid:      vname,
									Incremental: incr,
									Storage:     sname,
								},
								job: j,
							})
						}
					}
				}
			}
		}
	}
	return cells, nil
}

// RunSweep executes every cell of the grid over a bounded worker pool
// and returns the aggregate. Cell order in the result is the grid's
// enumeration order regardless of scheduling; each cell's report hash
// is computed from exactly the bytes the equivalent standalone run
// prints, so the aggregate is byte-identical across pool widths except
// for the wall-clock fields.
func (e *Engine) RunSweep(s Sweep) (*SweepResult, error) {
	cells, err := e.enumerate(s)
	if err != nil {
		return nil, err
	}
	// Compile every cell's config upfront, serially: errors surface
	// before any run starts, and the compile-cache miss count stays
	// deterministic whatever the pool does.
	cfgs := make([]coordinator.Config, len(cells))
	for i := range cells {
		cfg, err := e.Config(cells[i].job)
		if err != nil {
			return nil, fmt.Errorf("fleet: sweep cell %s/%d: %w", cells[i].cell.Spec, cells[i].cell.Ranks, err)
		}
		cfgs[i] = cfg
	}

	workers := s.PoolWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	start := time.Now()
	idx := make(chan int)
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				h := fnv.New64a()
				cw := &countingWriter{w: h}
				cellStart := time.Now()
				res, err := e.Run(cfgs[i], cw)
				if err != nil {
					errs[i] = err
					continue
				}
				c := &cells[i].cell
				c.ReportFNV64 = fmt.Sprintf("%016x", h.Sum64())
				c.ReportBytes = cw.n
				c.MakespanNs = int64(res.Makespan)
				c.Events = res.Events
				c.Checkpoints = res.Checkpoints
				c.Restarts = res.Restarts
				c.ImageBytes = res.ImageBytes
				c.FallbackDepth = res.FallbackDepth
				c.LostWorkNs = int64(res.LostWork)
				c.StoredBytes = res.StoredBytes
				c.PFSWaitNs = int64(res.PFSWait)
				c.WallMs = float64(time.Since(cellStart)) / float64(time.Millisecond)
			}
		}()
	}
	for i := range cells {
		idx <- i
	}
	close(idx)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("fleet: sweep cell %s/ranks=%d/virtid=%s: %w",
				cells[i].cell.Spec, cells[i].cell.Ranks, cells[i].cell.Virtid, err)
		}
	}

	wall := time.Since(start)
	out := &SweepResult{
		Cells: make([]Cell, len(cells)),
		Totals: Totals{
			Runs:         len(cells),
			PoolWorkers:  workers,
			WallMs:       float64(wall) / float64(time.Millisecond),
			SpecCompiles: e.Compiles(),
		},
	}
	if wall > 0 {
		out.Totals.RunsPerSec = float64(len(cells)) / wall.Seconds()
	}
	for i := range cells {
		out.Cells[i] = cells[i].cell
	}
	return out, nil
}

// countingWriter tees byte counts off a writer (the report hash).
type countingWriter struct {
	w interface{ Write([]byte) (int, error) }
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += n
	return n, err
}
