package main

import (
	"context"
	"fmt"
	"math/rand"

	"harness2/internal/container"
	"harness2/internal/wire"
	"harness2/internal/wsdl"
)

// BenchEcho is the one component every invoke workload calls. Its three
// operations differ only in payload size, so a workload's cost is the
// stack's cost and not the component's:
//
//	echo1   one float64 in and out       (per-message cost)
//	echo1k  128 float64 in and out       (a SOAP-sized body)
//	scale   8192 float64 each way, 64 KiB (bulk codec and copy cost)
const (
	echoClass    = "BenchEcho"
	echoInstance = "echo"

	echo1kLen = 128
	scaleLen  = 8192
)

func echoSpec() wsdl.ServiceSpec {
	arr := []wsdl.ParamSpec{{Name: "data", Type: wire.KindFloat64Array}}
	return wsdl.ServiceSpec{Name: echoClass, Operations: []wsdl.OpSpec{
		{Name: "echo1",
			Input:  []wsdl.ParamSpec{{Name: "x", Type: wire.KindFloat64}},
			Output: []wsdl.ParamSpec{{Name: "x", Type: wire.KindFloat64}}},
		{Name: "echo1k", Input: arr, Output: arr},
		{Name: "scale",
			Input:  append([]wsdl.ParamSpec{{Name: "factor", Type: wire.KindFloat64}}, arr...),
			Output: arr},
	}}
}

func floatsArg(args []wire.Arg, name string) ([]float64, error) {
	v, _ := wire.GetArg(args, name)
	data, ok := v.([]float64)
	if !ok {
		return nil, fmt.Errorf("BenchEcho: %s is %T, want []float64", name, v)
	}
	return data, nil
}

func echoFactory() container.Factory {
	return container.FuncFactory(func() *container.FuncComponent {
		return &container.FuncComponent{
			Spec: echoSpec(),
			Handlers: map[string]container.OpFunc{
				"echo1": func(_ context.Context, args []wire.Arg) ([]wire.Arg, error) {
					v, _ := wire.GetArg(args, "x")
					x, ok := v.(float64)
					if !ok {
						return nil, fmt.Errorf("BenchEcho: x is %T, want float64", v)
					}
					return wire.Args("x", x), nil
				},
				"echo1k": func(_ context.Context, args []wire.Arg) ([]wire.Arg, error) {
					data, err := floatsArg(args, "data")
					if err != nil {
						return nil, err
					}
					return wire.Args("data", data), nil
				},
				"scale": func(_ context.Context, args []wire.Arg) ([]wire.Arg, error) {
					data, err := floatsArg(args, "data")
					if err != nil {
						return nil, err
					}
					v, _ := wire.GetArg(args, "factor")
					factor, ok := v.(float64)
					if !ok {
						return nil, fmt.Errorf("BenchEcho: factor is %T, want float64", v)
					}
					out := make([]float64, len(data))
					for i, x := range data {
						out[i] = factor * x
					}
					return wire.Args("data", out), nil
				},
			},
		}
	})
}

// echoInput is one pre-generated call: its arguments and what the reply
// must be. Inputs are made from the seed before the clock starts, so the
// stack under test sees only the arguments.
type echoInput struct {
	args []wire.Arg
	// want is the expected "x" (echo1) or "data" (echo1k) reply; for scale
	// it is nil and wantSum, the checksum of the scaled array, is used.
	want    any
	wantLen int
	wantSum float64
}

// inputsPerCaller bounds how many distinct inputs a caller cycles through:
// enough that replies are not all alike, few enough that the 64 KiB arrays
// of scale stay inside the cache the way a caller's working buffer would.
const inputsPerCaller = 16

func randFloats(r *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = r.NormFloat64()
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// echoInputs generates a caller's inputs for op from r.
func echoInputs(r *rand.Rand, op string) []echoInput {
	ins := make([]echoInput, inputsPerCaller)
	for i := range ins {
		switch op {
		case "echo1":
			x := r.NormFloat64()
			ins[i] = echoInput{args: wire.Args("x", x), want: x}
		case "echo1k":
			data := randFloats(r, echo1kLen)
			ins[i] = echoInput{args: wire.Args("data", data), want: data}
		case "scale":
			data := randFloats(r, scaleLen)
			factor := 1 + r.Float64()
			scaled := make([]float64, len(data))
			for j, x := range data {
				scaled[j] = factor * x
			}
			ins[i] = echoInput{args: wire.Args("factor", factor, "data", data),
				wantLen: scaleLen, wantSum: sum(scaled)}
		default:
			panic("benchmark: unknown BenchEcho op " + op)
		}
	}
	return ins
}

// check reports whether out is the correct reply to the input. Every
// reply of every workload goes through it (or its registry counterparts),
// so a reply that arrives but is wrong counts as a failed operation.
func (in *echoInput) check(out []wire.Arg) error {
	if len(out) != 1 {
		return fmt.Errorf("reply has %d values, want 1", len(out))
	}
	if in.want != nil {
		if !wire.Equal(out[0].Value, in.want) {
			return fmt.Errorf("reply %q differs from what was sent", out[0].Name)
		}
		return nil
	}
	data, ok := out[0].Value.([]float64)
	if !ok || len(data) != in.wantLen {
		return fmt.Errorf("reply is %T, want %d float64", out[0].Value, in.wantLen)
	}
	if got := sum(data); got != in.wantSum {
		return fmt.Errorf("reply checksum %v, want %v", got, in.wantSum)
	}
	return nil
}
