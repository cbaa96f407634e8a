// Package telemetry is the HARNESS II measurement plane (S27): a
// zero-dependency metrics and tracing subsystem threaded through every
// layer of the Figure 6 stack — wire codecs, invocation bindings,
// containers, DVM coherency strategies, the registry, and the HTTP
// servers.
//
// The paper's critique of e-commerce containers is that they lack the
// services metacomputing needs; JClarens (the grid web-service host in
// PAPERS.md) answers with "access logging and monitoring" as a core
// container service. This package is that service for our reproduction:
// atomic Counters and Gauges, lock-free power-of-two-bucketed Histograms,
// a named Registry with Prometheus-text-format exposition, and
// lightweight Span tracing whose trace identity crosses SOAP hops in an
// `h2:Trace` header entry (the S26 header machinery).
//
// Everything is nil-safe by design: Disabled() returns a registry whose
// metric handles are all nil, and every operation on a nil handle is a
// single predictable branch — a few nanoseconds and zero allocations —
// so instrumentation can stay compiled into the hot paths permanently
// (proven by E12 / BenchmarkE12_Disabled).
package telemetry

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// counterStripes is the fan-out of a striped Counter (power of two).
const counterStripes = 8

// counterCell is one stripe, padded to a cacheline so neighbouring
// stripes never false-share.
type counterCell struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a monotonically increasing metric. The nil Counter is a
// valid no-op: every method is safe (and nearly free) on it.
//
// Counters sit on per-call hot paths (every invoke, every cache hit), so
// the count is STRIPED across padded cells: concurrent writers usually
// land on different cachelines instead of bouncing one atomic word
// between cores, and Value sums the stripes at read (scrape) time. The
// stripe is picked from the caller's stack address — goroutine stacks
// are kilobytes apart, so concurrent goroutines spread across stripes
// without any per-CPU or per-goroutine runtime support.
type Counter struct {
	cells [counterStripes]counterCell
}

// stripeIdx picks this goroutine's stripe from the address of a stack
// local. The pointer never escapes (it is immediately reduced to a
// uintptr), so the probe costs no allocation.
func stripeIdx() int {
	var probe byte
	return int(uintptr(unsafe.Pointer(&probe)) >> 10 & (counterStripes - 1))
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.cells[stripeIdx()].v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.cells[stripeIdx()].v.Add(n)
	}
}

// Value returns the current count (0 for the nil Counter), summing the
// stripes. Concurrent Incs may or may not be included, like any atomic
// counter read.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var n uint64
	for i := range c.cells {
		n += c.cells[i].v.Load()
	}
	return n
}

// Gauge is a metric that can go up and down. The nil Gauge is a valid
// no-op.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 for the nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// metricKind orders families in the exposition output.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// metric is one registered time series: a family name plus its serialized
// label set.
type metric struct {
	name   string // family name, e.g. harness_invoke_calls_total
	labels string // serialized label pairs, e.g. `binding="xdr",op="mul"`
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry is a named collection of metrics plus a ring of recently
// finished spans. The zero Registry is ready to use. A nil *Registry —
// and the shared instance Disabled() returns — hands out nil metric
// handles, turning all instrumentation into no-ops.
type Registry struct {
	disabled bool

	mu      sync.RWMutex
	metrics map[string]*metric // key: name + "{" + labels + "}"
	help    map[string]string  // family name -> HELP text
	vecs    map[string]any     // key: vecKey; value: *CounterVec, *GaugeVec or *HistogramVec

	spans spanRing
}

// New returns an empty, enabled registry.
func New() *Registry {
	return &Registry{}
}

var defaultRegistry = New()

// Default returns the process-wide registry that instrumented components
// fall back to when no registry is configured explicitly. cmd/hnode and
// cmd/hregistry expose it at /metrics.
func Default() *Registry { return defaultRegistry }

var disabledRegistry = &Registry{disabled: true}

// Disabled returns the shared no-op registry: every metric handle it
// hands out is nil, and nil handles cost a branch per operation. Use it
// to switch instrumentation off wholesale (the E12 ablation).
func Disabled() *Registry { return disabledRegistry }

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil && !r.disabled }

// Or returns r when non-nil, else the process default registry. It lets
// struct fields use nil for "not configured" while Disabled() remains the
// explicit off switch.
func Or(r *Registry) *Registry {
	if r == nil {
		return defaultRegistry
	}
	return r
}

// Help sets the exposition HELP text for a metric family.
func (r *Registry) Help(family, text string) {
	if !r.Enabled() {
		return
	}
	r.mu.Lock()
	if r.help == nil {
		r.help = make(map[string]string)
	}
	r.help[family] = text
	r.mu.Unlock()
}

// labelString serializes name/value pairs ("k1", "v1", "k2", "v2", ...)
// into deterministic Prometheus label syntax. Pairs are sorted by key.
func labelString(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup returns the metric registered under name+labels, creating it
// with mk on first use. Concurrent callers converge on one instance.
func (r *Registry) lookup(name string, labels []string, kind metricKind) *metric {
	ls := labelString(labels)
	key := name + "{" + ls + "}"
	r.mu.RLock()
	m := r.metrics[key]
	r.mu.RUnlock()
	if m != nil {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m = r.metrics[key]; m != nil {
		return m
	}
	if r.metrics == nil {
		r.metrics = make(map[string]*metric)
	}
	m = &metric{name: name, labels: ls, kind: kind}
	switch kind {
	case kindCounter:
		m.c = &Counter{}
	case kindGauge:
		m.g = &Gauge{}
	case kindHistogram:
		m.h = &Histogram{}
	}
	r.metrics[key] = m
	return m
}

// Counter returns (registering on first use) the counter named name with
// the given label pairs. Nil and disabled registries return nil.
func (r *Registry) Counter(name string, labelPairs ...string) *Counter {
	if !r.Enabled() {
		return nil
	}
	return r.lookup(name, labelPairs, kindCounter).c
}

// Gauge returns the gauge named name with the given label pairs.
func (r *Registry) Gauge(name string, labelPairs ...string) *Gauge {
	if !r.Enabled() {
		return nil
	}
	return r.lookup(name, labelPairs, kindGauge).g
}

// Histogram returns the histogram named name with the given label pairs.
func (r *Registry) Histogram(name string, labelPairs ...string) *Histogram {
	if !r.Enabled() {
		return nil
	}
	return r.lookup(name, labelPairs, kindHistogram).h
}

// snapshot returns the registered metrics sorted by family then labels.
func (r *Registry) snapshot() []*metric {
	if !r.Enabled() {
		return nil
	}
	r.mu.RLock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// nowFunc is swappable for deterministic span tests.
var nowFunc = time.Now
