package main

import (
	"syscall"
	"time"
)

// cpuNow returns the CPU time, user and system, this process has used so
// far. The benchmark's time metrics are read from it rather than from a
// wall clock: on a shared host, whatever else runs on the same cores
// stretches wall time but not the CPU time the simulator itself spends.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuMsSince returns the CPU milliseconds used since a cpuNow reading.
func cpuMsSince(c time.Duration) float64 { return float64(cpuNow()-c) / 1e6 }
