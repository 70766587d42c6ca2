// Command peakrss runs a program with its standard output written to a
// file and prints the program's own peak resident set size — ru_maxrss
// of the child that wait4 reaps, in KiB on Linux — with its wall and
// system time. It exits non-zero when the program fails or its peak is
// not under a ceiling. `make smoke-wide` runs manasim through it.
//
// The peak is the child's, not this process's: a parent that reads
// getrusage(RUSAGE_CHILDREN) instead sees its own high-water mark too,
// which a forked child carries across exec (13.6 MiB for /bin/true under
// python3). What the child carries from this small process is a few MiB,
// below every ceiling it checks.
//
// Usage:
//
//	peakrss <output file> <label> <ceiling MiB> <program> [argument...]
package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) < 5 {
		fmt.Fprintln(os.Stderr, "usage: peakrss <output file> <label> <ceiling MiB> <program> [argument...]")
		os.Exit(2)
	}
	out, label, program := os.Args[1], os.Args[2], os.Args[4]
	limit, err := strconv.Atoi(os.Args[3])
	if err != nil {
		fmt.Fprintf(os.Stderr, "peakrss: ceiling %q: %v\n", os.Args[3], err)
		os.Exit(2)
	}
	f, err := os.Create(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "peakrss: %v\n", err)
		os.Exit(2)
	}
	cmd := exec.Command(program, os.Args[5:]...)
	cmd.Stdout, cmd.Stderr = f, os.Stderr
	start := time.Now()
	err = cmd.Run()
	wall := time.Since(start)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", label, err)
		os.Exit(1)
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	mib := float64(ru.Maxrss) / 1024
	fmt.Printf("%s peak RSS %.0f MiB, wall %.2f s, sys %.2f s\n",
		label, mib, wall.Seconds(), time.Duration(ru.Stime.Nano()).Seconds())
	if mib >= float64(limit) {
		fmt.Fprintf(os.Stderr, "%s peak RSS over %d MiB\n", label, limit)
		os.Exit(1)
	}
}
