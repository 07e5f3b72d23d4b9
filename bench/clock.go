package main

import (
	"syscall"
	"time"
)

// clock.go holds every wall-clock read of the benchmark, so the
// repo-wide vtimeclock lint has one audited place to look: esgperf
// measures the host cost of running the program, which only the wall
// clock and the kernel's CPU accounting can report.

// processStart is taken at package initialisation, before main runs.
var processStart = time.Now() //esglint:wallclock esgperf times the host cost of the program under test

// nowNs is the monotonic wall time since process start.
func nowNs() int64 {
	return int64(time.Since(processStart)) //esglint:wallclock esgperf times the host cost of the program under test
}

// wallNow stamps real-TCP fixtures (certificate validity windows).
func wallNow() time.Time {
	return time.Now() //esglint:wallclock GSI credentials for the loopback workloads are issued at real time
}

// cpuNs is the process's user+system CPU time. Client and server of the
// tcp workloads live in this one process, so it covers both ends.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// maxRSSMB is the process's peak resident set (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
