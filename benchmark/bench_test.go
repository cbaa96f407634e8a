package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"harness2/internal/wire"
)

func TestPercentileKnownAnswers(t *testing.T) {
	thousand := make([]float64, 1000)
	for i := range thousand {
		thousand[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		name   string
		sorted []float64
		p      float64
		want   float64
	}{
		{"empty", nil, 0.5, 0},
		{"one", []float64{7}, 0.99, 7},
		{"median of four is the second", []float64{1, 2, 3, 4}, 0.5, 2},
		{"median of five is the third", []float64{1, 2, 3, 4, 5}, 0.5, 3},
		{"p99 of a thousand leaves ten beyond", thousand, 0.99, 990},
		{"p100 is the largest", thousand, 1, 1000},
	} {
		if got := percentile(tc.sorted, tc.p); got != tc.want {
			t.Errorf("%s: percentile = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestWindowMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median of four windows = %v, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of three windows = %v, want 5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) and of [1, 2, 3, 4, 5].
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartiles(ten), [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles of 1..10 = %v, want %v", got, want)
	}
	if got, want := quartiles([]float64{1, 2, 3, 4, 5}), [3]float64{1.5, 3, 4.5}; got != want {
		t.Errorf("quartiles of 1..5 = %v, want %v", got, want)
	}
	if ten[0] != 10 {
		t.Error("quartiles sorted its argument in place")
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Op: 1, Parent: -1, Name: spanOp, Start: 0, End: 100 * ms},
		{Op: 1, Parent: 0, Name: spanRegistryFind, Start: 10 * ms, End: 30 * ms},
		{Op: 1, Parent: 0, Name: spanInvokeCall, Start: 40 * ms, End: 90 * ms},
		{Op: 1, Parent: 2, Name: spanInvokeDial, Start: 45 * ms, End: 50 * ms},
	}
	want := []time.Duration{30 * ms, 20 * ms, 45 * ms, 5 * ms}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	st := summarise([]*tracer{{spans: spans}})
	if got := st.childShare; math.Abs(got-0.7) > 1e-9 {
		t.Errorf("child share = %v, want 0.7", got)
	}
	if got := st.median[spanInvokeCall]; got != 50_000 {
		t.Errorf("median invoke.call = %v us, want 50000", got)
	}
	if got := st.selfMedian[spanInvokeCall]; got != 45_000 {
		t.Errorf("self invoke.call = %v us, want 45000", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.end(tr.begin(-1, spanOp)) // must not panic
}

func TestJudge(t *testing.T) {
	def := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := func(v float64) measured { return measured{Value: v, Quartiles: &[3]float64{v * 0.99, v, v * 1.01}} }
	noisy := func(v float64) measured { return measured{Value: v, Quartiles: &[3]float64{v * 0.9, v, v * 1.1}} }
	for _, tc := range []struct {
		name string
		a, b measured
		want string
	}{
		{"within the bound", steady(100), steady(95), verdictOK},
		{"better", steady(100), steady(150), verdictOK},
		{"beyond the bound", steady(100), steady(85), verdictRegressed},
		{"too noisy to tell", steady(100), noisy(85), verdictUnresolved},
	} {
		if _, got := judge(def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	lower := metricDef{Name: "op_p50_us", Better: "lower", Bound: 0.10}
	if worse, got := judge(lower, steady(100), steady(120)); got != verdictRegressed || math.Abs(worse-0.2) > 1e-9 {
		t.Errorf("a latency up by a fifth: %v %s, want 0.2 %s", worse, got, verdictRegressed)
	}
}

// corruptingCaller answers from the component directly and flips one
// element of every second reply, standing in for a stack that delivers a
// wrong answer without an error.
type corruptingCaller struct {
	inputs []echoInput
	n      int
}

func (c *corruptingCaller) op(*tracer) error {
	in := &c.inputs[c.n%len(c.inputs)]
	c.n++
	comp, err := echoFactory()()
	if err != nil {
		return err
	}
	out, err := comp.Invoke(ctx, "scale", in.args)
	if err != nil {
		return err
	}
	if c.n%2 == 0 {
		out[0].Value.([]float64)[c.n%scaleLen] += 1
	}
	return in.check(out)
}

func TestCorruptedReplyCountsAsFailure(t *testing.T) {
	for _, op := range []string{"echo1", "echo1k", "scale"} {
		for _, in := range echoInputs(rand.New(rand.NewSource(1)), op) {
			comp, _ := echoFactory()()
			out, err := comp.Invoke(ctx, op, in.args)
			if err != nil {
				t.Fatal(err)
			}
			if err := in.check(out); err != nil {
				t.Errorf("%s: correct reply rejected: %v", op, err)
			}
			if err := in.check(wire.Args("x", 0.5)); err == nil {
				t.Errorf("%s: wrong reply accepted", op)
			}
		}
	}
	c := &corruptingCaller{inputs: echoInputs(rand.New(rand.NewSource(2)), "scale")}
	l, err := closedLoop([]caller{c}, nil, 50*time.Millisecond, 2, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if l.attempted < 2 || l.failed != l.attempted/2 {
		t.Errorf("%d of %d operations failed, want every second one", l.failed, l.attempted)
	}
	if int64(l.ops()) > l.attempted-l.failed {
		t.Errorf("%d samples from %d good operations", l.ops(), l.attempted-l.failed)
	}
	if l.firstErr == nil {
		t.Error("no failure was kept for the report")
	}
}

// TestSmoke stands every workload up for a fraction of a second and checks
// that both passes report every metric BENCHMARK.json names, finite, and
// that nothing failed.
func TestSmoke(t *testing.T) {
	const d = 300 * time.Millisecond
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e2e, err := runEndToEnd(w, 1, d)
			if err != nil {
				t.Fatal(err)
			}
			layers, err := runTraced(w, 1, d, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, pass := range []struct {
				defs []metricDef
				r    *result
			}{{endToEnd, e2e}, {perLayer, layers}} {
				if pass.r.Failed != 0 || pass.r.Attempted == 0 {
					t.Errorf("%d of %d operations failed", pass.r.Failed, pass.r.Attempted)
				}
				if len(pass.r.Metrics) != len(pass.defs) {
					t.Errorf("%d metrics reported, want %d", len(pass.r.Metrics), len(pass.defs))
				}
				for _, def := range pass.defs {
					m, ok := pass.r.Metrics[def.Name]
					if !ok || m.Unit != def.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 {
						t.Errorf("%s = %+v (present %v), want a finite value in %s", def.Name, m, ok, def.Unit)
					}
				}
			}
			for _, def := range endToEnd {
				if e2e.Metrics[def.Name].Value <= 0 {
					t.Errorf("end-to-end %s = %v, want above 0", def.Name, e2e.Metrics[def.Name].Value)
				}
			}
			if layers.Metrics["allocs_per_op"].Value <= 0 || layers.Metrics["wire_bytes_per_op"].Value <= 0 {
				t.Errorf("process-wide counts are empty: %+v", layers.Metrics)
			}
		})
	}
}

// TestBenchmarkJSONMatchesProgram keeps the contract file and the tables
// the program prints from in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(contract.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", contract.Paths)
	}
	if !reflect.DeepEqual(contract.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v, program has %+v", contract.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(contract.PerLayer, perLayer) {
		t.Errorf("per_layer = %+v, program has %+v", contract.PerLayer, perLayer)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, program has %d", len(contract.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := contract.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d = %+v, program has %s: %s", i, got, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, at most 200 allowed", w.name, len(w.why))
		}
	}
}
