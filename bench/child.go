package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os/exec"
	"regexp"
	"strconv"
	"syscall"
	"time"

	"mana/internal/fleet"
)

// sample is one child invocation as a user experiences it: exec to
// stdout EOF and exit, the child's own CPU, and its peak resident set.
type sample struct {
	wall, cpu float64 // seconds
	rssMB     float64 // MiB
	out       []byte
}

// runChild execs the binary, reads its stdout to EOF and reaps it.
func runChild(bin string, args []string) (sample, error) {
	var out, errb bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	s := sample{wall: time.Since(start).Seconds(), out: out.Bytes()}
	if err != nil {
		return s, fmt.Errorf("%s %v: %w: %s", bin, args, err, bytes.TrimSpace(errb.Bytes()))
	}
	ps := cmd.ProcessState
	s.cpu = (ps.UserTime() + ps.SystemTime()).Seconds()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		s.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return s, nil
}

// report is what the checks and the events/s metric need from one
// invocation's stdout, plus the canonical bytes byte-identity is judged
// on.
type report struct {
	canonical []byte
	fnv64     string

	runs          int
	events        uint64
	checkpoints   int
	restarts      int
	fallbackDepth int
	imageBytes    uint64
	storedBytes   uint64
	fingerprint   string
	specCompiles  uint64
	cells         []fleet.Cell
}

func fnvHex(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

var (
	reEvents      = regexp.MustCompile(`(?m)^job: .*events=(\d+)`)
	reCheckpoints = regexp.MustCompile(`(?m)^checkpoints: (\d+) committed`)
	reRestarts    = regexp.MustCompile(`(?m)^restarts: (\d+)`)
	reFallback    = regexp.MustCompile(`fallback-depth=(\d+)`)
	reWrote       = regexp.MustCompile(`, wrote (\d+) bytes`)
	reStored      = regexp.MustCompile(`io: stored (\d+) bytes`)
	reFingerprint = regexp.MustCompile(`(?m)^final fingerprint: ([0-9a-f]{16})$`)
)

func atoi(b []byte) uint64 {
	n, _ := strconv.ParseUint(string(b), 10, 64) // the regexps admit digits only
	return n
}

// parseReport reads a single-run text report.
func parseReport(out []byte) (*report, error) {
	r := &report{canonical: out, fnv64: fnvHex(out), runs: 1}
	ev, ck, fp := reEvents.FindSubmatch(out), reCheckpoints.FindSubmatch(out), reFingerprint.FindSubmatch(out)
	if ev == nil || ck == nil || fp == nil {
		return nil, fmt.Errorf("report has no job, checkpoints or final fingerprint line")
	}
	r.events, r.checkpoints, r.fingerprint = atoi(ev[1]), int(atoi(ck[1])), string(fp[1])
	if m := reRestarts.FindSubmatch(out); m != nil {
		r.restarts = int(atoi(m[1]))
	}
	for _, m := range reFallback.FindAllSubmatch(out, -1) {
		r.fallbackDepth = max(r.fallbackDepth, int(atoi(m[1])))
	}
	for _, m := range reWrote.FindAllSubmatch(out, -1) {
		r.imageBytes += atoi(m[1])
	}
	for _, m := range reStored.FindAllSubmatch(out, -1) {
		r.storedBytes += atoi(m[1])
	}
	return r, nil
}

// parseSweep reads a -sweep JSON aggregate. Its canonical form zeroes the
// host-time fields, the only bytes that differ between identical sweeps.
func parseSweep(out []byte) (*report, error) {
	var res fleet.SweepResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("sweep aggregate: %w", err)
	}
	r := &report{runs: res.Totals.Runs, specCompiles: res.Totals.SpecCompiles, cells: res.Cells}
	for i := range res.Cells {
		c := &res.Cells[i]
		c.WallMs = 0
		r.events += c.Events
		r.checkpoints += c.Checkpoints
		r.imageBytes += c.ImageBytes
		r.storedBytes += c.StoredBytes
	}
	res.Totals.WallMs, res.Totals.RunsPerSec = 0, 0
	canon, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	r.canonical, r.fnv64 = canon, fnvHex(canon)
	return r, nil
}

func (w workload) parse(out []byte) (*report, error) {
	if w.grid != nil {
		return parseSweep(out)
	}
	return parseReport(out)
}
