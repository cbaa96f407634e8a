package telemetry

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("calls_total", "binding", "xdr")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name+labels converge on one instance.
	if r.Counter("calls_total", "binding", "xdr") != c {
		t.Fatal("re-lookup returned a different counter")
	}
	// Label order must not matter.
	c2 := r.Counter("multi_total", "a", "1", "b", "2")
	if r.Counter("multi_total", "b", "2", "a", "1") != c2 {
		t.Fatal("label order changed identity")
	}
	g := r.Gauge("live")
	g.Inc()
	g.Add(10)
	g.Dec()
	if got := g.Value(); got != 10 {
		t.Fatalf("gauge = %d, want 10", got)
	}
	g.Set(-3)
	if got := g.Value(); got != -3 {
		t.Fatalf("gauge = %d, want -3", got)
	}
}

func TestNilAndDisabledAreNoOps(t *testing.T) {
	var r *Registry
	for _, reg := range []*Registry{r, Disabled()} {
		c := reg.Counter("x")
		c.Inc()
		c.Add(9)
		if c.Value() != 0 {
			t.Fatal("nil counter recorded")
		}
		g := reg.Gauge("y")
		g.Set(5)
		if g.Value() != 0 {
			t.Fatal("nil gauge recorded")
		}
		h := reg.Histogram("z")
		h.Observe(7)
		h.ObserveSince(h.Start())
		if h.Count() != 0 || !h.Start().IsZero() {
			t.Fatal("nil histogram recorded")
		}
		if v := reg.CounterVec("v", "op"); v.With("a") != nil {
			t.Fatal("nil vec returned live counter")
		}
		if v := reg.HistogramVec("v", "op"); v.With("a") != nil {
			t.Fatal("nil vec returned live histogram")
		}
		if v := reg.GaugeVec("v", "op"); v.With("a") != nil {
			t.Fatal("nil vec returned live gauge")
		}
		ctx, sp := reg.StartSpan(context.Background(), "op")
		if sp != nil {
			t.Fatal("disabled registry returned live span")
		}
		sp.SetError(errors.New("x"))
		sp.End() // must not panic
		if _, ok := FromContext(ctx); ok {
			t.Fatal("disabled span injected trace context")
		}
		if reg.Enabled() {
			t.Fatal("Enabled() = true")
		}
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("lat_ns")
	for _, v := range []uint64{0, 1, 2, 3, 4, 100, 1000, 1 << 40} {
		h.Observe(v)
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 0+1+2+3+4+100+1000+(1<<40) {
		t.Fatalf("sum = %d", h.Sum())
	}
	// p50 over {0,1,2,3,4,100,1000,2^40}: 4th obs is 3 -> bucket bound 3.
	if q := h.Quantile(0.5); q != 3 {
		t.Fatalf("p50 = %d, want 3", q)
	}
	if q := h.Quantile(1); q < 1<<40 {
		t.Fatalf("p100 = %d, want >= 2^40", q)
	}
	if q := h.Quantile(0); q != 0 {
		t.Fatalf("p0 bucket bound = %d, want 0", q)
	}
	// Values past the last bucket clamp instead of exploding.
	h.Observe(^uint64(0))
	if h.Count() != 9 {
		t.Fatal("clamped observation lost")
	}
}

func TestHistogramTimer(t *testing.T) {
	r := New()
	h := r.Histogram("t_ns")
	now := time.Unix(100, 0)
	old := nowFunc
	nowFunc = func() time.Time { return now }
	defer func() { nowFunc = old }()

	start := h.Start()
	now = now.Add(8 * time.Millisecond)
	h.ObserveSince(start)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != uint64(8*time.Millisecond) {
		t.Fatalf("sum = %d", h.Sum())
	}
}

func TestVecsShareChildren(t *testing.T) {
	r := New()
	v := r.CounterVec("harness_invoke_calls_total", "op", "binding", "xdr")
	v.With("mul").Inc()
	v.With("mul").Inc()
	v.With("add").Inc()
	if got := r.Counter("harness_invoke_calls_total", "binding", "xdr", "op", "mul").Value(); got != 2 {
		t.Fatalf("mul = %d, want 2", got)
	}
	// Concurrent With on a fresh value must converge on one child.
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v.With("racy").Inc()
		}()
	}
	wg.Wait()
	if got := v.With("racy").Value(); got != 16 {
		t.Fatalf("racy = %d, want 16", got)
	}
}

// TestVecFamiliesResolveOnce: a family asked for again — as a port
// dialed per call asks for its binding's trio — is the same vec, and
// resolving it and a known child allocates nothing.
func TestVecFamiliesResolveOnce(t *testing.T) {
	r := New()
	v := r.CounterVec("harness_invoke_calls_total", "op", "binding", "soap")
	if r.CounterVec("harness_invoke_calls_total", "op", "binding", "soap") != v {
		t.Fatal("same counter family resolved to two vecs")
	}
	if r.CounterVec("harness_invoke_calls_total", "op", "binding", "xdr") == v {
		t.Fatal("families with different fixed pairs share a vec")
	}
	h := r.HistogramVec("harness_invoke_latency_ns", "op", "binding", "soap")
	if r.HistogramVec("harness_invoke_latency_ns", "op", "binding", "soap") != h {
		t.Fatal("same histogram family resolved to two vecs")
	}
	if New().CounterVec("harness_invoke_calls_total", "op", "binding", "soap") == v {
		t.Fatal("two registries share a vec")
	}
	v.With("echo").Inc()
	if n := testing.AllocsPerRun(100, func() {
		r.CounterVec("harness_invoke_calls_total", "op", "binding", "soap").With("echo").Inc()
	}); n != 0 {
		t.Errorf("resolving a known family and child allocates %v times", n)
	}
	if got := r.Counter("harness_invoke_calls_total", "binding", "soap", "op", "echo").Value(); got != 102 {
		t.Fatalf("echo = %d, want 102", got)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := New()
	r.Help("harness_calls_total", "total calls by binding")
	r.Counter("harness_calls_total", "binding", "xdr").Add(3)
	r.Counter("harness_calls_total", "binding", "soap").Add(1)
	r.Gauge("harness_live").Set(7)
	h := r.Histogram("harness_lat_ns", "binding", "xdr")
	h.Observe(3) // bucket 2 (bound 3)
	h.Observe(900)

	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP harness_calls_total total calls by binding",
		"# TYPE harness_calls_total counter",
		`harness_calls_total{binding="soap"} 1`,
		`harness_calls_total{binding="xdr"} 3`,
		"# TYPE harness_live gauge",
		"harness_live 7",
		"# TYPE harness_lat_ns histogram",
		`harness_lat_ns_bucket{binding="xdr",le="3"} 1`,
		`harness_lat_ns_bucket{binding="xdr",le="1023"} 2`,
		`harness_lat_ns_bucket{binding="xdr",le="+Inf"} 2`,
		`harness_lat_ns_sum{binding="xdr"} 903`,
		`harness_lat_ns_count{binding="xdr"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := New()
	r.Counter("esc_total", "msg", "a\"b\\c\nd").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `esc_total{msg="a\"b\\c\nd"} 1`) {
		t.Fatalf("bad escaping:\n%s", sb.String())
	}
}

func TestSnapshotDump(t *testing.T) {
	r := New()
	r.Counter("c_total").Add(2)
	r.Histogram("h_ns").Observe(5)
	_, sp := r.StartSpan(context.Background(), "work")
	sp.End()
	var sb strings.Builder
	if err := r.WriteSnapshot(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"c_total", "h_ns", "recent spans", "work"} {
		if !strings.Contains(out, want) {
			t.Fatalf("snapshot missing %q:\n%s", want, out)
		}
	}
}

func TestOr(t *testing.T) {
	if Or(nil) != Default() {
		t.Fatal("Or(nil) != Default()")
	}
	r := New()
	if Or(r) != r {
		t.Fatal("Or(r) != r")
	}
	if Or(Disabled()) != Disabled() {
		t.Fatal("Or(Disabled()) != Disabled()")
	}
}
