package coordinator

import "mana/internal/vtime"

// OnDispatch installs f as the hook the event loop calls with the time
// of every event it dispatches, for the tests of the coordinator_test
// package.
func (c *Coordinator) OnDispatch(f func(vtime.Time)) { c.dispatched = f }
