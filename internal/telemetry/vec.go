package telemetry

import (
	"sync"
	"sync/atomic"
)

// The Vec types are pre-bound metric families with one variable label —
// the per-operation dimension of the invoke/coherency instrumentation.
// The label-value → handle mapping is a copy-on-write map behind an
// atomic pointer, so the steady state of With is one atomic load and one
// map probe: no locks on the hot path (S34 — the old RWMutex read lock
// serialized every instrumented call sitewide). Vecs are nil-safe: a Vec
// obtained from a disabled registry is nil, With on a nil Vec returns a
// nil handle, and every operation on a nil handle is a branch.

// vecOf returns the registry's one family of its kind keyed by (name,
// label, fixed pairs), making it with mk on first use. Every caller that
// asks for the same family shares its children, so a family resolved per
// dial costs a lookup, not a fresh vec whose first With per label value
// serializes labels and probes the metric map again. mk gets its own copy
// of the fixed pairs; the caller's slice is not kept.
func vecOf[V any](r *Registry, kind metricKind, name, label string, fixed []string, mk func(fixed []string) *V) *V {
	var kb [128]byte
	k := append(append(kb[:0], byte(kind)), name...)
	k = append(append(k, 0), label...)
	for _, p := range fixed {
		k = append(append(k, 0), p...)
	}
	r.mu.RLock()
	v, ok := r.vecs[string(k)].(*V)
	r.mu.RUnlock()
	if ok {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.vecs[string(k)].(*V); ok {
		return v
	}
	if r.vecs == nil {
		r.vecs = make(map[string]any)
	}
	v = mk(append([]string(nil), fixed...))
	r.vecs[string(k)] = v
	return v
}

// vecCache is the shared copy-on-write label cache. Lookups are
// lock-free; inserts copy the map under a writer mutex and republish.
type vecCache[T any] struct {
	mu sync.Mutex
	m  atomic.Pointer[map[string]*T]
}

// get returns the cached handle for value, lock-free.
func (c *vecCache[T]) get(value string) *T {
	if mp := c.m.Load(); mp != nil {
		return (*mp)[value]
	}
	return nil
}

// insert publishes value → mk() unless a racing insert got there first,
// returning the winning handle.
func (c *vecCache[T]) insert(value string, mk func() *T) *T {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.m.Load()
	if old != nil {
		if h, ok := (*old)[value]; ok {
			return h
		}
	}
	next := make(map[string]*T, 1)
	if old != nil {
		next = make(map[string]*T, len(*old)+1)
		for k, v := range *old {
			next[k] = v
		}
	}
	h := mk()
	next[value] = h
	c.m.Store(&next)
	return h
}

// CounterVec is a counter family keyed by one variable label.
type CounterVec struct {
	r     *Registry
	name  string
	label string
	fixed []string // fixed label pairs appended to every child

	cache vecCache[Counter]
}

// CounterVec returns a counter family: name with one variable label plus
// optional fixed label pairs. The same arguments return the same family.
func (r *Registry) CounterVec(name, label string, fixedPairs ...string) *CounterVec {
	if !r.Enabled() {
		return nil
	}
	return vecOf(r, kindCounter, name, label, fixedPairs, func(fixed []string) *CounterVec {
		return &CounterVec{r: r, name: name, label: label, fixed: fixed}
	})
}

// With returns the child counter for the given label value.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	if c := v.cache.get(value); c != nil {
		return c
	}
	return v.cache.insert(value, func() *Counter {
		pairs := append(append(make([]string, 0, len(v.fixed)+2), v.fixed...), v.label, value)
		return v.r.Counter(v.name, pairs...)
	})
}

// GaugeVec is a gauge family keyed by one variable label.
type GaugeVec struct {
	r     *Registry
	name  string
	label string
	fixed []string

	cache vecCache[Gauge]
}

// GaugeVec returns a gauge family: name with one variable label plus
// optional fixed label pairs. The same arguments return the same family.
func (r *Registry) GaugeVec(name, label string, fixedPairs ...string) *GaugeVec {
	if !r.Enabled() {
		return nil
	}
	return vecOf(r, kindGauge, name, label, fixedPairs, func(fixed []string) *GaugeVec {
		return &GaugeVec{r: r, name: name, label: label, fixed: fixed}
	})
}

// With returns the child gauge for the given label value.
func (v *GaugeVec) With(value string) *Gauge {
	if v == nil {
		return nil
	}
	if g := v.cache.get(value); g != nil {
		return g
	}
	return v.cache.insert(value, func() *Gauge {
		pairs := append(append(make([]string, 0, len(v.fixed)+2), v.fixed...), v.label, value)
		return v.r.Gauge(v.name, pairs...)
	})
}

// HistogramVec is a histogram family keyed by one variable label.
type HistogramVec struct {
	r     *Registry
	name  string
	label string
	fixed []string

	cache vecCache[Histogram]
}

// HistogramVec returns a histogram family: name with one variable label
// plus optional fixed label pairs. The same arguments return the same
// family.
func (r *Registry) HistogramVec(name, label string, fixedPairs ...string) *HistogramVec {
	if !r.Enabled() {
		return nil
	}
	return vecOf(r, kindHistogram, name, label, fixedPairs, func(fixed []string) *HistogramVec {
		return &HistogramVec{r: r, name: name, label: label, fixed: fixed}
	})
}

// With returns the child histogram for the given label value.
func (v *HistogramVec) With(value string) *Histogram {
	if v == nil {
		return nil
	}
	if h := v.cache.get(value); h != nil {
		return h
	}
	return v.cache.insert(value, func() *Histogram {
		pairs := append(append(make([]string, 0, len(v.fixed)+2), v.fixed...), v.label, value)
		return v.r.Histogram(v.name, pairs...)
	})
}
