package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// minP99Samples is how many samples a window needs for its p99 to have
// ten samples beyond it.
const minP99Samples = 1000

// percentile returns the nearest-rank p-quantile of sorted: the smallest
// value with at least p of the samples at or below it. With 1000 samples
// the p99 is the 990th, leaving ten beyond it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives, which is what the acceptance
// check of this benchmark uses. It needs at least two values.
func quartiles(values []float64) [3]float64 {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	n := len(data)
	var q [3]float64
	if n < 2 {
		return q
	}
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return q
}

func median(values []float64) float64 {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	n := len(data)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return data[n/2]
	}
	return (data[n/2-1] + data[n/2]) / 2
}

// loadResult is what one closed-loop pass measured. The per-window slices
// have one value per timed window.
type loadResult struct {
	attempted, failed int64
	firstErr          error
	elapsed           time.Duration
	opsPerS           []float64
	p50us, p99us      []float64
	samples           []int // verified operations per window
}

// ops is the number of verified operations inside the windows.
func (r *loadResult) ops() int {
	n := 0
	for _, s := range r.samples {
		n += s
	}
	return n
}

// closedLoop drives every caller for d, each issuing its next operation
// when the previous one has returned, and splits d into windows equal
// windows by the time an operation completed. tracers is nil for an
// untraced pass, else one tracer per caller. perWindow sizes the off-heap
// latency buffers (operations per caller per window); a window that
// outgrows its buffer spills to the Go heap.
func closedLoop(callers []caller, tracers []*tracer, d time.Duration, windows, perWindow int) (*loadResult, error) {
	type tally struct {
		lat               [][]float64 // µs, per window
		attempted, failed int64
		firstErr          error
	}
	window := d / time.Duration(windows)
	tallies := make([]tally, len(callers))
	block, free, err := offHeap[float64](len(callers) * windows * perWindow)
	if err != nil {
		return nil, err
	}
	defer free()
	for i := range tallies {
		tallies[i].lat = make([][]float64, windows)
		for w := range tallies[i].lat {
			at := (i*windows + w) * perWindow
			tallies[i].lat[w] = block[at : at : at+perWindow]
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range callers {
		t := &tallies[i]
		var tr *tracer
		if tracers != nil {
			tr = tracers[i]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t0 := time.Now()
				if t0.Sub(start) >= d {
					return
				}
				err := c.op(tr)
				t1 := time.Now()
				t.attempted++
				if err != nil {
					t.failed++
					if t.firstErr == nil {
						t.firstErr = err
					}
					continue
				}
				// An operation that ends after the last window is checked
				// and counted, but belongs to no window.
				if w := int(t1.Sub(start) / window); w < windows {
					t.lat[w] = append(t.lat[w], us(t1.Sub(t0)))
				}
			}
		}()
	}
	wg.Wait()
	res := &loadResult{elapsed: time.Since(start)}
	for i := range tallies {
		res.attempted += tallies[i].attempted
		res.failed += tallies[i].failed
		if res.firstErr == nil {
			res.firstErr = tallies[i].firstErr
		}
	}
	for w := 0; w < windows; w++ {
		var lat []float64
		for i := range tallies {
			lat = append(lat, tallies[i].lat[w]...)
		}
		sort.Float64s(lat)
		res.samples = append(res.samples, len(lat))
		res.opsPerS = append(res.opsPerS, float64(len(lat))/window.Seconds())
		res.p50us = append(res.p50us, percentile(lat, 0.5))
		res.p99us = append(res.p99us, percentile(lat, 0.99))
	}
	return res, nil
}
