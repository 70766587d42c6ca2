package coordinator

import (
	"strings"

	"mana/internal/scenario"
	"mana/internal/vtime"
)

// OnDispatch installs f as the hook the event loop calls with the time
// of every event it dispatches, for the tests of the coordinator_test
// package.
func (c *Coordinator) OnDispatch(f func(vtime.Time)) { c.dispatched = f }

// OnCommit installs f as the hook the commit stage calls with the seq of
// every checkpoint, once the generation store holds its link.
func (c *Coordinator) OnCommit(f func(seq int)) { c.committed = f }

// Report renders the run's report (WriteReport) into a string, for tests
// that compare whole reports.
func (c *Coordinator) Report() string {
	var b strings.Builder
	c.WriteReport(&b)
	return b.String()
}

// DefaultConfig returns a runnable 8-rank configuration: the default
// library spec at 30 steps.
func DefaultConfig() Config {
	cfg := BaseConfig()
	cfg.Programs = mustPrograms("default", scenario.Params{Ranks: 8, Steps: 30, Seed: 42})
	return cfg
}

// mustPrograms loads a library spec and compiles it, panicking on any
// error: the tests name specs known to compile.
func mustPrograms(name string, p scenario.Params) []scenario.Program {
	spec, err := scenario.Load(name)
	if err != nil {
		panic(err)
	}
	progs, err := spec.Compile(p)
	if err != nil {
		panic(err)
	}
	return progs
}

// perRank builds one Program per rank from a function, to stage protocol
// situations no declarative spec expresses.
func perRank(ranks int, f func(id int) []scenario.Op) []scenario.Program {
	progs := make([]scenario.Program, ranks)
	for id := range progs {
		progs[id] = f(id)
	}
	return progs
}
