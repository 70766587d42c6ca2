// Package vtime provides virtual (simulated) time primitives used throughout
// the MANA simulation substrate.
//
// Every MPI rank in the simulation owns a Clock whose value advances only
// when modelled costs are charged against it: compute phases from workload
// models, per-message latency and serialisation time from the network
// models, kernel costs such as FS-register switches, and checkpoint I/O
// time. Messages piggyback the sender's timestamp so that receiving and
// synchronising operations can advance a receiver to the causally correct
// time (a conservative "piggyback" form of parallel discrete-event
// simulation).
//
// The package also provides the coordinator's event queue, EventQueue,
// which pops events in (time, seq) order. Because no wall-clock time is ever consulted, all figures regenerated
// by the benchmark harness are deterministic.
package vtime

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, measured in nanoseconds since the start
// of the simulated job. It is deliberately a distinct type from
// time.Duration to prevent accidental mixing of wall-clock and virtual
// quantities.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common virtual durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
)

// String formats the duration using the standard library's formatting.
func (d Duration) String() string { return time.Duration(d).String() }

// String formats the time as a duration offset from virtual zero.
func (t Time) String() string { return time.Duration(t).String() }

// Add returns the time advanced by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// DurationOf converts floating-point seconds to a virtual Duration.
func DurationOf(seconds float64) Duration { return Duration(seconds * float64(Second)) }

// Clock is a per-rank virtual clock.
//
// Ownership rule: a rank's clock — like its address space and handle
// table — is touched only by the goroutine currently driving that rank:
// the one goroutine that runs its job's event loop, checkpoints,
// restarts and report. No goroutine ever observes a
// clock from outside, so a Clock carries no lock: it is one word, read
// and written on every simulated event, and cmd/isolint fails the build
// if a sync or atomic field is added to it.
type Clock struct {
	now Time
}

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d and returns the new time. Negative
// durations are ignored so that cost models can never move time backwards.
func (c *Clock) Advance(d Duration) Time {
	if d > 0 {
		c.now += Time(d)
	}
	return c.now
}

// AdvanceTo moves the clock forward to at least t (it never moves
// backwards) and returns the resulting time. This is the synchronisation
// primitive used when a rank must wait for a message or a collective whose
// completion time is t.
func (c *Clock) AdvanceTo(t Time) Time {
	if t > c.now {
		c.now = t
	}
	return c.now
}

// Set forcibly positions the clock, used when restoring a rank from a
// checkpoint image.
func (c *Clock) Set(t Time) { c.now = t }

// Stamp is a virtual timestamp piggybacked onto a simulated network
// message: the sender's rank and clock value at the moment the message
// left. Receivers use it to advance causally (a conservative
// piggyback-synchronisation scheme, so simulated time never runs
// backwards across a happens-before edge).
type Stamp struct {
	Rank int
	When Time
}

// StampFrom captures a piggyback stamp from the given clock.
func StampFrom(rank int, c *Clock) Stamp {
	return Stamp{Rank: rank, When: c.Now()}
}

// Observe applies a piggybacked timestamp to the clock: the clock
// advances to at least s.When and the resulting time is returned. This is
// the receive-side half of timestamp piggybacking.
func (c *Clock) Observe(s Stamp) Time {
	return c.AdvanceTo(s.When)
}

// MaxStamp returns the latest of the given stamps; with no stamps it
// returns the zero Stamp. Coordinators use this to compute the completion
// time of an operation that must wait for every participant.
func MaxStamp(stamps []Stamp) Stamp {
	var max Stamp
	for i, s := range stamps {
		if i == 0 || s.When > max.When {
			max = s
		}
	}
	return max
}

// RNG is a small deterministic pseudo-random number generator
// (SplitMix64). It is used wherever the simulation needs variability —
// compute jitter, message sizes — while remaining reproducible for a
// given seed. math/rand would also work, but a self-contained generator
// keeps the substrate free of global state and seed-ordering surprises.
type RNG struct {
	state uint64
}

// gamma is SplitMix64's state increment: the generator's state is a
// counter stepped by gamma, which is what makes the stream random-access.
const gamma = 0x9e3779b97f4a7c15

// NewRNG returns a generator seeded with the given value.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed + gamma}
}

// RNGAt returns NewRNG(seed) positioned just before its k-th output
// (k counts from 1), without producing the k-1 before it: the state
// after n outputs is seed + (n+1)*gamma, so any draw of a stream is a
// function of (seed, k) alone. It returns a value so a caller that
// needs one draw keeps the generator on its stack.
func RNGAt(seed, k uint64) RNG {
	return RNG{state: seed + k*gamma}
}

// Uint64 returns the next 64-bit pseudo-random value.
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a value uniformly distributed in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a value uniformly distributed in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("vtime: Intn called with non-positive n=%d", n))
	}
	return int(r.Uint64() % uint64(n))
}

// Jitter returns a multiplicative factor in [1-spread, 1+spread] used to
// perturb modelled costs.
func (r *RNG) Jitter(spread float64) float64 {
	return 1 + spread*(2*r.Float64()-1)
}
