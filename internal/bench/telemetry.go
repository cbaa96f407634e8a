package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"harness2/internal/container"
	"harness2/internal/invoke"
	"harness2/internal/telemetry"
	"harness2/internal/wire"
	"harness2/internal/wsdl"
)

// E12TelemetryOverhead measures the cost of the observability plane
// (telemetry S27) on its hot paths, enabled versus disabled. The design
// contract under test: instrumentation defaults on, so its per-event cost
// must be tens of nanoseconds; the Disabled() off-switch must reduce
// every instrument to a nil-receiver branch — a few nanoseconds and zero
// allocations — so latency-critical deployments pay nothing.
//
// Rows cover the primitive instruments (counter increment, histogram
// timer, vec child lookup, child-span gate) and one end-to-end local
// invocation through a fully instrumented container + port stack.
func E12TelemetryOverhead(reps, invokeReps int) (*Table, error) {
	t := &Table{
		ID:    "E12",
		Title: "Telemetry overhead: instruments enabled vs telemetry.Disabled()",
		Note:  "disabled path is a nil-receiver branch; allocs/op must be 0 both ways on primitives",
		Columns: []string{"instrument", "enabled ns/op", "allocs/op",
			"disabled ns/op", "allocs/op", "overhead"},
	}

	on := telemetry.New()
	off := telemetry.Disabled()

	type workload struct {
		name string
		reps int
		mk   func(r *telemetry.Registry) func()
	}
	workloads := []workload{
		{"counter.Inc", reps, func(r *telemetry.Registry) func() {
			c := r.Counter("e12_counter")
			return func() { c.Inc() }
		}},
		{"gauge.Set", reps, func(r *telemetry.Registry) func() {
			g := r.Gauge("e12_gauge")
			return func() { g.Set(42) }
		}},
		{"histogram.Observe", reps, func(r *telemetry.Registry) func() {
			h := r.Histogram("e12_hist")
			return func() { h.Observe(1024) }
		}},
		{"histogram.Start+ObserveSince", reps, func(r *telemetry.Registry) func() {
			h := r.Histogram("e12_hist_timer")
			return func() { h.ObserveSince(h.Start()) }
		}},
		{"counterVec.With(op).Inc", reps, func(r *telemetry.Registry) func() {
			v := r.CounterVec("e12_vec", "op")
			return func() { v.With("deploy").Inc() }
		}},
		{"xdr compress record (ctr+hist)", reps, func(r *telemetry.Registry) func() {
			// The S33 per-frame accounting path: one counter add plus
			// one ratio observation, exactly what compressedOut charges.
			out := r.Counter("e12_comp_out_bytes", "role", "client")
			ratio := r.Histogram("e12_comp_ratio", "role", "client")
			return func() { out.Add(9930); ratio.Observe(15) }
		}},
		{"childSpan gate (untraced)", reps, func(r *telemetry.Registry) func() {
			ctx := context.Background()
			return func() { _, _ = r.ChildSpan(ctx, "e12") }
		}},
		{"local invoke end-to-end", invokeReps, func(r *telemetry.Registry) func() {
			p, err := e12Port(r)
			if err != nil {
				panic(err)
			}
			ctx := context.Background()
			args := wire.Args("by", int64(1))
			return func() {
				if _, err := p.Invoke(ctx, "inc", args); err != nil {
					panic(err)
				}
			}
		}},
	}

	for _, w := range workloads {
		enNs, enAllocs := measureOverhead(w.reps, w.mk(on))
		disNs, disAllocs := measureOverhead(w.reps, w.mk(off))
		t.AddRow(w.name,
			fmtNs(enNs), fmtAllocs(enAllocs),
			fmtNs(disNs), fmtAllocs(disAllocs),
			fmtNs(enNs-disNs))
	}
	return t, nil
}

// e12Port builds a one-instance container charged to r and dials its
// local rung, instrumented on r. The component is a trivial accumulator so the
// measurement isolates dispatch + instrumentation, not compute.
func e12Port(r *telemetry.Registry) (invoke.Port, error) {
	c := container.New(container.Config{Name: "e12", Telemetry: r})
	c.RegisterFactory("Accum", e12AccumFactory())
	inst, _, err := c.Deploy("Accum", "a1")
	if err != nil {
		return nil, err
	}
	defs, err := c.WSDLFor(inst.ID)
	if err != nil {
		return nil, err
	}
	return invoke.Dial(defs, invoke.Options{LocalContainers: []*container.Container{c}, Telemetry: r})
}

func e12AccumFactory() container.Factory {
	return container.FuncFactory(func() *container.FuncComponent {
		var total int64
		return &container.FuncComponent{
			Spec: wsdl.ServiceSpec{Name: "Accum", Operations: []wsdl.OpSpec{{
				Name:   "inc",
				Input:  []wsdl.ParamSpec{{Name: "by", Type: wire.KindInt64}},
				Output: []wsdl.ParamSpec{{Name: "total", Type: wire.KindInt64}},
			}}},
			Handlers: map[string]container.OpFunc{
				"inc": func(ctx context.Context, args []wire.Arg) ([]wire.Arg, error) {
					if v, ok := wire.GetArg(args, "by"); ok {
						if by, ok := v.(int64); ok {
							total += by
						}
					}
					return wire.Args("total", total), nil
				},
			},
		}
	})
}

// measureOverhead returns the mean wall time and mean heap allocations of
// reps invocations of fn, with a warm-up pass so lazy initialisation (vec
// children, histograms) is excluded from the measurement.
func measureOverhead(reps int, fn func()) (time.Duration, float64) {
	if reps < 1 {
		reps = 1
	}
	for i := 0; i < 100; i++ {
		fn()
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(reps)
	return elapsed / time.Duration(reps), allocs
}

func fmtNs(d time.Duration) string {
	return fmt.Sprintf("%.1fns", float64(d.Nanoseconds()))
}

func fmtAllocs(a float64) string {
	if a < 0.005 {
		return "0"
	}
	return fmt.Sprintf("%.2f", a)
}
