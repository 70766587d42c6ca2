package coordinator

import "mana/internal/vtime"

// OnDispatch installs f as the hook the serial event loop calls with the
// time of every event it dispatches, for the tests of the coordinator_test
// package. Parallel windows do not call it, so a hooked run should be
// serial (Workers <= 1).
func (c *Coordinator) OnDispatch(f func(vtime.Time)) { c.dispatched = f }
