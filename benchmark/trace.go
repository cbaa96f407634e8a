package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// spanName indexes spanNames. The benchmark records spans from outside the
// stack, around its calls into each layer's public functions; every
// operation is one spanOp with the layer calls as its children.
type spanName uint8

const (
	spanOp spanName = iota
	spanRegistryFind
	spanRegistryWrite
	spanWSDLParse
	spanInvokeBind
	spanInvokeDial
	spanInvokeCall
)

var spanNames = [...]string{
	spanOp:            "op",
	spanRegistryFind:  "registry.find",
	spanRegistryWrite: "registry.write",
	spanWSDLParse:     "wsdl.parse",
	spanInvokeBind:    "invoke.bind",
	spanInvokeDial:    "invoke.dial",
	spanInvokeCall:    "invoke.call",
}

func (n spanName) String() string { return spanNames[n] }

// span is one timed interval. Parent is the index of the enclosing span
// in the same tracer, -1 for an operation's root span. It holds no
// pointer, as offHeap requires.
type span struct {
	Op     int32
	Parent int32
	Name   spanName
	Start  time.Duration // since the tracer's base
	End    time.Duration
}

// tracer keeps one caller's spans in memory. A nil *tracer records
// nothing and reads no clock: the timed windows pass nil, so the only
// difference between a traced and an untraced operation is the tracing.
type tracer struct {
	base    time.Time
	ops     int32
	spans   []span
	release func()
}

// newTracer makes a tracer with off-heap room for capacity spans; more
// spill to the Go heap. release gives the room back.
func newTracer(base time.Time, capacity int) (*tracer, error) {
	spans, release, err := offHeap[span](capacity)
	if err != nil {
		return nil, err
	}
	return &tracer{base: base, spans: spans, release: release}, nil
}

// begin opens a span under parent (-1 starts a new operation) and returns
// its index for end.
func (t *tracer) begin(parent int, name spanName) int {
	if t == nil {
		return -1
	}
	if parent < 0 {
		t.ops++
	}
	t.spans = append(t.spans, span{Op: t.ops, Name: name, Parent: int32(parent), Start: time.Since(t.base)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = time.Since(t.base)
}

func (s span) dur() time.Duration { return s.End - s.Start }

// selfTimes returns, per span, its duration minus the part its direct
// children cover. Children of one span never overlap here (a caller is one
// goroutine), so that part is the sum of their durations.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// layerStats summarises a traced pass: the median duration of each span
// name, the median self time of each name, and, over all operations, the
// share of root-span time that child spans account for.
type layerStats struct {
	median     [len(spanNames)]float64 // µs
	selfMedian [len(spanNames)]float64 // µs
	count      [len(spanNames)]int
	childShare float64
}

func summarise(tracers []*tracer) layerStats {
	var durs, selfs [len(spanNames)][]float64
	var rootTotal, childTotal time.Duration
	for _, t := range tracers {
		self := selfTimes(t.spans)
		for i, s := range t.spans {
			if s.End == 0 {
				continue // cut off by the end of the pass
			}
			durs[s.Name] = append(durs[s.Name], us(s.dur()))
			selfs[s.Name] = append(selfs[s.Name], us(self[i]))
			if s.Parent < 0 {
				rootTotal += s.dur()
				childTotal += s.dur() - self[i]
			}
		}
	}
	var st layerStats
	for name, d := range durs {
		sort.Float64s(d)
		sort.Float64s(selfs[name])
		st.median[name] = percentile(d, 0.5)
		st.selfMedian[name] = percentile(selfs[name], 0.5)
		st.count[name] = len(d)
	}
	if rootTotal > 0 {
		st.childShare = float64(childTotal) / float64(rootTotal)
	}
	return st
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// dumpSpans writes every span as one JSON array, one span per line. IDs
// are "<caller>.<index>", unique within the file.
func dumpSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "[")
	first := true
	for c, t := range tracers {
		for i, s := range t.spans {
			if !first {
				fmt.Fprintln(w, ",")
			}
			first = false
			parent := "null"
			if s.Parent >= 0 {
				parent = fmt.Sprintf(`"%d.%d"`, c, s.Parent)
			}
			fmt.Fprintf(w, `{"id":"%d.%d","op":"%d.%d","name":%q,"start_ns":%d,"end_ns":%d,"parent":%s}`,
				c, i, c, s.Op, s.Name.String(), s.Start.Nanoseconds(), s.End.Nanoseconds(), parent)
		}
	}
	fmt.Fprintln(w, "\n]")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
