//go:build xdrpoison

package invoke

import (
	"context"
	"math"
	"sync"
	"testing"

	"harness2/internal/container"
	"harness2/internal/wire"
	"harness2/internal/wsdl"
)

// This file exists only in `go test -tags xdrpoison` builds (make
// test-poison), where xdr.Arena.Release overwrites every lent-out array
// with NaNs once the response is encoded. The rest of the invoke, core and
// dvm suites run under the same tag: any in-tree component that kept a
// request slice past its Invoke would fail them with garbage results.

// hoarderImpl breaks the borrow contract on purpose: `keep` retains its
// argument slice, `peek` reports what the retained slice reads as later.
func hoarderImpl() container.Factory {
	arr := []wsdl.ParamSpec{{Name: "data", Type: wire.KindFloat64Array}}
	return container.FuncFactory(func() *container.FuncComponent {
		var mu sync.Mutex
		var kept []float64
		return &container.FuncComponent{
			Spec: wsdl.ServiceSpec{Name: "Hoarder", Operations: []wsdl.OpSpec{
				{Name: "keep", Input: arr, Output: []wsdl.ParamSpec{{Name: "n", Type: wire.KindInt32}}},
				{Name: "peek", Output: []wsdl.ParamSpec{{Name: "nans", Type: wire.KindInt32}}},
			}},
			Handlers: map[string]container.OpFunc{
				"keep": func(_ context.Context, args []wire.Arg) ([]wire.Arg, error) {
					mu.Lock()
					defer mu.Unlock()
					kept = args[0].Value.([]float64)
					return wire.Args("n", int32(len(kept))), nil
				},
				"peek": func(context.Context, []wire.Arg) ([]wire.Arg, error) {
					mu.Lock()
					defer mu.Unlock()
					var nans int32
					for _, x := range kept {
						if math.IsNaN(x) {
							nans++
						}
					}
					return wire.Args("nans", nans), nil
				},
			},
		}
	})
}

// TestPoisonFindsRetainedArgs proves the hook can see what it is for: a
// component that retains its argument reads nothing but NaNs out of it as
// soon as its reply is on the way, on every server code path.
func TestPoisonFindsRetainedArgs(t *testing.T) {
	h := newLadderHost(t)
	h.c.RegisterFactory("Hoarder", hoarderImpl())
	h.deploy(t, "Hoarder", "b1")
	for name, p := range binaryPorts(t, h, "b1") {
		const n = 1000
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(i)
		}
		ctx := context.Background()
		if _, err := p.Invoke(ctx, "keep", wire.Args("data", data)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out, err := p.Invoke(ctx, "peek", nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if nans, _ := wire.GetArg(out, "nans"); nans.(int32) != n {
			t.Errorf("%s: retained argument reads %d NaNs of %d: release did not poison it", name, nans, n)
		}
	}
}
