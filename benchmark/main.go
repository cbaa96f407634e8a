// Command benchmark measures the HARNESS II stack end to end and layer by
// layer. It stands the real stack up in this process over loopback sockets
// and /dev/shm, drives it closed-loop with two callers, checks every
// reply, and prints each metric by name and unit. README.md says why the
// workloads and metrics are what they are; ../BENCHMARK.json is the
// contract the numbers are gated by.
//
//	bash benchmark/run.sh --workload xdr-small --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -seed 1 -out a.json          # all workloads, both passes
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// gitRev is set by run.sh at link time.
var gitRev = "unknown"

// metricDef is one row of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may get worse.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// fail_ratio is not here because BENCHMARK.json admits no metric that can
// be 0: failures travel as the attempted and failed counts of every
// result, and -compare rejects any rise. README.md has the measured
// spreads the bounds come from.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p99_us", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricDef{
	{Name: "registry.find_us", Unit: "us", Better: "lower"},
	{Name: "registry.write_us", Unit: "us", Better: "lower"},
	{Name: "wsdl.parse_us", Unit: "us", Better: "lower"},
	{Name: "invoke.bind_us", Unit: "us", Better: "lower"},
	{Name: "invoke.dial_us", Unit: "us", Better: "lower"},
	{Name: "invoke.call_us", Unit: "us", Better: "lower"},
	{Name: "invoke.transport_us", Unit: "us", Better: "lower"},
	{Name: "xdr.codec_us", Unit: "us", Better: "lower"},
	{Name: "soap.codec_us", Unit: "us", Better: "lower"},
	{Name: "container.dispatch_us", Unit: "us", Better: "lower"},
	{Name: "registry.store_us", Unit: "us", Better: "lower"},
	{Name: "allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "wire_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "trace_overhead_ratio", Unit: "ratio", Better: "higher"},
}

const (
	timedWindows = 10
	// A run stands the stack up at least minSetups times and goes on, up to
	// maxSetups, while set-up has taken less than setupBudget in all.
	// setup_s is the median, so one slow listener or page fault does not set
	// it, and a set-up of a few milliseconds gets the repeats it needs to
	// read steadily.
	minSetups   = 5
	maxSetups   = 25
	setupBudget = time.Second
)

// measured is one metric of one run: the reported value and, for an
// end-to-end metric, the per-window (setup_s: per-set-up) values behind it.
type measured struct {
	Value     float64     `json:"value"`
	Unit      string      `json:"unit"`
	Windows   []float64   `json:"windows,omitempty"`
	Quartiles *[3]float64 `json:"quartiles,omitempty"`
}

func ofWindows(unit string, windows []float64) measured {
	q := quartiles(windows)
	return measured{Value: median(windows), Unit: unit, Windows: windows, Quartiles: &q}
}

// result is one workload's pass: end-to-end metrics from the untraced
// windows, or per-layer metrics from the traced pass.
type result struct {
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
	// MinWindowSamples is the smallest per-window sample count behind
	// op_p99_us; under minP99Samples the p99 has fewer than ten beyond it.
	MinWindowSamples int `json:"min_window_samples,omitempty"`
}

func (r *result) count(l *loadResult) {
	r.Attempted += l.attempted
	r.Failed += l.failed
}

// setUp stands w up and runs the fixed warm-up, and says how long that took.
func setUp(w workload, seed int64) (*stack, time.Duration, error) {
	t0 := time.Now()
	s := &stack{probes: map[string]func() error{}}
	err := w.setup(s, seed)
	if err == nil {
		err = s.warm()
	}
	if err != nil {
		s.close()
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	return s, time.Since(t0), nil
}

// warmUp drives the stack for one window unrecorded and returns how many
// operations per caller a window of that length holds, with headroom.
func warmUp(r *result, s *stack, window time.Duration) (int, error) {
	l, err := closedLoop(s.callers, nil, window, 1, 1<<16)
	if err != nil {
		return 0, err
	}
	r.count(l)
	return l.ops()/len(s.callers)*3/2 + 1024, nil
}

// runEndToEnd measures the end-to-end metrics: repeated set-up, one window
// of warm-up, then ten timed windows with tracing off.
func runEndToEnd(w workload, seed int64, d time.Duration) (*result, error) {
	var s *stack
	var setupS []float64
	var total time.Duration
	for len(setupS) < minSetups || (len(setupS) < maxSetups && total < setupBudget) {
		if s != nil {
			s.close()
		}
		var took time.Duration
		var err error
		if s, took, err = setUp(w, seed); err != nil {
			return nil, err
		}
		setupS = append(setupS, took.Seconds())
		total += took
	}
	defer s.close()

	r := &result{Metrics: map[string]measured{}}
	window := d / timedWindows
	perWindow, err := warmUp(r, s, window)
	if err != nil {
		return nil, err
	}
	l, err := closedLoop(s.callers, nil, d, timedWindows, perWindow)
	if err != nil {
		return nil, err
	}
	r.count(l)
	if l.firstErr != nil {
		fmt.Printf("%s: first failure: %v\n", w.name, l.firstErr)
	}
	r.Metrics["ops_per_s"] = ofWindows("1/s", l.opsPerS)
	r.Metrics["op_p50_us"] = ofWindows("us", l.p50us)
	r.Metrics["op_p99_us"] = ofWindows("us", l.p99us)
	r.Metrics["setup_s"] = ofWindows("s", setupS)
	r.MinWindowSamples = slices.Min(l.samples)

	printMetrics(w.name, endToEnd, r.Metrics)
	note := ""
	if r.MinWindowSamples < minP99Samples {
		note = fmt.Sprintf(" (under %d: p99 has fewer than ten samples beyond it)", minP99Samples)
	}
	fmt.Printf("%-15s %-22s %14d samples in the smallest of %d windows of %v%s\n",
		w.name, "op_p99_us", r.MinWindowSamples, timedWindows, window, note)
	fmt.Printf("%-15s %-22s %14.4f MB/s (computed: ops_per_s x %.0f payload bytes per op)\n",
		w.name, "payload_mb_per_s", r.Metrics["ops_per_s"].Value*s.wireBytes/1e6, s.wireBytes)
	fmt.Printf("%-15s %-22s %14.6f (%d of %d operations failed or returned a wrong reply)\n",
		w.name, "fail_ratio", float64(r.Failed)/float64(r.Attempted), r.Failed, r.Attempted)
	return r, nil
}

// runTraced measures the per-layer metrics: an untraced pass for the
// process-wide counts, a traced pass for the spans, then the isolated
// probes. Together they take about d.
func runTraced(w workload, seed int64, d time.Duration, traceOut string) (*result, error) {
	s, _, err := setUp(w, seed)
	if err != nil {
		return nil, err
	}
	defer s.close()

	r := &result{Metrics: map[string]measured{}}
	window := d / timedWindows
	perWindow, err := warmUp(r, s, window)
	if err != nil {
		return nil, err
	}

	before := readCounters()
	plain, err := closedLoop(s.callers, nil, 3*window, 3, perWindow)
	if err != nil {
		return nil, err
	}
	after := readCounters()
	r.count(plain)

	const tracedWindows = 4
	base := time.Now()
	tracers := make([]*tracer, len(s.callers))
	for i := range tracers {
		// Three spans per operation on the fast workloads; the slow ones
		// record up to five and have room to spare.
		if tracers[i], err = newTracer(base, perWindow*tracedWindows*3); err != nil {
			return nil, err
		}
		defer tracers[i].release()
	}
	traced, err := closedLoop(s.callers, tracers, tracedWindows*window, tracedWindows, perWindow)
	if err != nil {
		return nil, err
	}
	r.count(traced)
	if traceOut != "" {
		if err := dumpSpans(traceOut, tracers); err != nil {
			return nil, fmt.Errorf("%s: writing spans: %w", w.name, err)
		}
	}
	st := summarise(tracers)

	m := map[string]float64{
		"registry.find_us":  st.median[spanRegistryFind],
		"registry.write_us": st.median[spanRegistryWrite],
		"wsdl.parse_us":     st.median[spanWSDLParse],
		"invoke.bind_us":    st.median[spanInvokeBind],
		"invoke.dial_us":    st.median[spanInvokeDial],
		"invoke.call_us":    st.median[spanInvokeCall],
		"wire_bytes_per_op": s.wireBytes,
	}
	for name, fn := range s.probes {
		if m[name], err = runProbe(fn); err != nil {
			return nil, fmt.Errorf("%s: probe %s: %w", w.name, name, err)
		}
	}
	if call := m["invoke.call_us"]; call > 0 {
		m["invoke.transport_us"] = math.Max(0, call-m[s.codec]-m["container.dispatch_us"])
	}
	if ops := float64(plain.attempted); ops > 0 {
		m["allocs_per_op"] = float64(after.mallocs-before.mallocs) / ops
		m["alloc_bytes_per_op"] = float64(after.allocBytes-before.allocBytes) / ops
		m["cpu_us_per_op"] = us(after.cpu-before.cpu) / ops
	}
	if base := median(plain.opsPerS); base > 0 {
		m["trace_overhead_ratio"] = median(traced.opsPerS) / base
	}
	for _, def := range perLayer {
		r.Metrics[def.Name] = measured{Value: m[def.Name], Unit: def.Unit}
	}

	printMetrics(w.name, perLayer, r.Metrics)
	for i := range spanNames {
		if name := spanName(i); st.count[name] > 0 {
			fmt.Printf("%-15s span %-17s %14.4f us median, %.4f us self, %d spans\n",
				w.name, name, st.median[name], st.selfMedian[name], st.count[name])
		}
	}
	fmt.Printf("%-15s child spans cover %.4f of operation time\n", w.name, st.childShare)
	// The outside-in reconciliation: an operation is a chain of layer
	// calls, so the layer spans must account for the operation span.
	if st.childShare < 0.9 {
		return nil, fmt.Errorf("%s: child spans cover %.3f of the operation spans, want at least 0.9", w.name, st.childShare)
	}
	return r, nil
}

func printMetrics(workload string, defs []metricDef, got map[string]measured) {
	for _, def := range defs {
		fmt.Printf("%-15s %-22s %14.4f %s\n", workload, def.Name, got[def.Name].Value, def.Unit)
	}
}

// runRecord is what -out writes and -compare reads: every workload's two
// passes and where they were measured.
type runRecord struct {
	Seed       int64  `json:"seed"`
	GitRev     string `json:"git_rev"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Callers    int    `json:"callers"`
	Seconds    int    `json:"seconds"`
	// Link says what carried the bytes: no number here is a link rate.
	Link      string             `json:"link"`
	Workloads []recordedWorkload `json:"workloads"`
}

type recordedWorkload struct {
	Name      string  `json:"name"`
	EndToEnd  *result `json:"end_to_end"`
	PerLayer  *result `json:"per_layer"`
	FailRatio float64 `json:"fail_ratio"`
}

func runAll(seed int64, seconds int, traceOut string) (*runRecord, error) {
	rec := &runRecord{
		Seed: seed, GitRev: gitRev, GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Callers: numCallers, Seconds: seconds,
		Link: "loopback and /dev/shm on one host, not a real link",
	}
	d := time.Duration(seconds) * time.Second
	for _, w := range workloads {
		e2e, err := runEndToEnd(w, seed, d)
		if err != nil {
			return nil, err
		}
		out := traceOut
		if out != "" {
			out = filepath.Join(filepath.Dir(out), w.name+"."+filepath.Base(out))
		}
		layers, err := runTraced(w, seed, d, out)
		if err != nil {
			return nil, err
		}
		rec.Workloads = append(rec.Workloads, recordedWorkload{
			Name: w.name, EndToEnd: e2e, PerLayer: layers,
			FailRatio: float64(e2e.Failed+layers.Failed) / float64(e2e.Attempted+layers.Attempted),
		})
	}
	return rec, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func run() error {
	name := flag.String("workload", "", "workload to run; empty runs all five, both passes")
	seed := flag.Int64("seed", 1, "seed the workload makes its inputs from")
	seconds := flag.Int("seconds", 20, "length of the measured pass, split into ten windows")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
	traceOut := flag.String("trace-out", "", "write the traced pass's spans to this file as JSON")
	out := flag.String("out", "", "write the run record of an all-workloads run to this file")
	compare := flag.Bool("compare", false, "compare two run records: -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return errors.New("usage: -compare a.json b.json")
		}
		return compareRecords(flag.Arg(0), flag.Arg(1))
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || flag.NArg() != 0 {
		return errors.New("want -seconds at least 1, -trace 0 or 1, and no other arguments")
	}

	if *name == "" {
		rec, err := runAll(*seed, *seconds, *traceOut)
		if err != nil {
			return err
		}
		if *out != "" {
			return writeJSON(*out, rec)
		}
		return nil
	}

	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("no workload %q", *name)
	}
	d := time.Duration(*seconds) * time.Second
	var r *result
	var err error
	if *trace == 0 {
		r, err = runEndToEnd(w, *seed, d)
	} else {
		r, err = runTraced(w, *seed, d, *traceOut)
	}
	if err != nil {
		return err
	}
	// The contract's last line: value and unit only.
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for k, m := range r.Metrics {
		metrics[k] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
