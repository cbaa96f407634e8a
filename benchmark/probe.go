package main

import (
	"runtime"
	"syscall"
	"time"
)

// probeBudget is how long one isolated probe runs. Five probes at most, so
// together they stay a small, fixed part of a traced run.
const probeBudget = 150 * time.Millisecond

// runProbe times fn alone on one goroutine and returns the median cost of
// one call in µs. Calls are timed in batches long enough for the clock to
// resolve, and the median over batches discards the ones a neighbour or
// the collector interrupted.
func runProbe(fn func() error) (float64, error) {
	t0 := time.Now()
	if err := fn(); err != nil {
		return 0, err
	}
	batch := int(200*time.Microsecond/(time.Since(t0)+1)) + 1
	var means []float64
	for end := time.Now().Add(probeBudget); time.Now().Before(end); {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		means = append(means, us(time.Since(t0))/float64(batch))
	}
	return median(means), nil
}

// counters is a reading of the process-wide totals the per-op counts are
// differences of.
type counters struct {
	mallocs, allocBytes uint64
	cpu                 time.Duration
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return counters{
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}
