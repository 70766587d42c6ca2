package coordinator

import (
	"reflect"
	"strings"

	"mana/internal/memsim"
	"mana/internal/rank"
	"mana/internal/scenario"
	"mana/internal/vtime"
)

// OnDispatch installs f as the hook the event loop calls with the time
// of every event it dispatches, for the tests of the coordinator_test
// package.
func (c *Coordinator) OnDispatch(f func(vtime.Time)) { c.dispatched = f }

// SetStepwise turns run-ahead off (on = true) or back on: with it off,
// every operation a rank executes is a queue event of its own.
func (c *Coordinator) SetStepwise(on bool) { c.stepwise = on }

// RanAhead returns how many operations ranks ran ahead of the queue.
func (c *Coordinator) RanAhead() uint64 { return c.ranAhead }

// QueueCap returns the event queue's arena capacity in events.
func (c *Coordinator) QueueCap() int { return c.queue.Cap() }

// LongestRing returns the most slots any pair ring of the network holds:
// per pair, its room, its queued messages and the one slot of slack.
func (c *Coordinator) LongestRing() int {
	longest := 0
	for p, pc := range c.net.CountersSnapshot() {
		longest = max(longest, c.net.Room(p.Src, p.Dst)+int(pc.Sent-pc.Received)+1)
	}
	return longest
}

// upperTable returns the length and capacity of the rank's upper-half
// region table. memsim exports no observer of it (one no run reaches
// would join cmd/manasim/testdata/unreached.txt), so this reads
// AddressSpace.regions[UpperHalf] by reflection, writing nothing.
func upperTable(r *rank.Rank) (n, capacity int) {
	upper := reflect.ValueOf(r.Mem()).Elem().FieldByName("regions").Index(int(memsim.UpperHalf))
	return upper.Len(), upper.Cap()
}

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
