package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"harness2/internal/container"
	"harness2/internal/wire"
	"harness2/internal/wsdl"
)

// RandDoubles returns a deterministic pseudo-random []float64 workload.
func RandDoubles(n int, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = r.NormFloat64()
	}
	return out
}

// CompressibleDoubles returns a float64 workload with heavy small-integer
// repetition — the shape of real mesh/matrix data that wire compression
// (S33) is for. Flate shrinks it severalfold; RandDoubles is its
// incompressible counterpart.
func CompressibleDoubles(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i % 16)
	}
	return out
}

// RandMatrix returns an n×n row-major matrix with a dominant diagonal
// (well-conditioned, so LinSolve workloads never hit singularity).
func RandMatrix(n int, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]float64, n*n)
	for i := range out {
		out[i] = r.NormFloat64()
	}
	for i := 0; i < n; i++ {
		out[i*n+i] += float64(n) + 1
	}
	return out
}

// timeIt measures the mean wall time of reps invocations of fn.
func timeIt(reps int, fn func()) time.Duration {
	if reps < 1 {
		reps = 1
	}
	start := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(reps)
}

// percentiles returns (p50, p99) of the sample set.
func percentiles(ds []time.Duration) (p50, p99 time.Duration) {
	if len(ds) == 0 {
		return 0, 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)*50/100], ds[len(ds)*99/100]
}

// e17WSDL builds the one WSDL document shared by every generated registry
// entry: the publish path validates each document, and at 10⁵ entries
// distinct documents would make fill time dominate an experiment.
func e17WSDL() (string, error) {
	defs, err := wsdl.Generate(wsdl.ServiceSpec{
		Name: "ClusterSvc",
		Operations: []wsdl.OpSpec{{
			Name:   "run",
			Input:  []wsdl.ParamSpec{{Name: "x", Type: wireKindDoubleArray}},
			Output: []wsdl.ParamSpec{{Name: "y", Type: wireKindDoubleArray}},
		}},
	}, wsdl.EndpointSet{
		SOAPAddress: "http://host:8080/services/cluster",
		XDRAddress:  "host:9010",
	})
	if err != nil {
		return "", err
	}
	return defs.String(), nil
}

// arraySinkFactory builds the transport workload component: "checksum"
// folds a float64 array into one double. The O(n) fold is far cheaper
// than moving the array across the socket, so an experiment calling it
// measures transport, not compute.
func arraySinkFactory() container.Factory {
	return container.FuncFactory(func() *container.FuncComponent {
		return &container.FuncComponent{
			Spec: wsdl.ServiceSpec{Name: "ArraySink", Operations: []wsdl.OpSpec{{
				Name:   "checksum",
				Input:  []wsdl.ParamSpec{{Name: "data", Type: wire.KindFloat64Array}},
				Output: []wsdl.ParamSpec{{Name: "sum", Type: wire.KindFloat64}},
			}}},
			Handlers: map[string]container.OpFunc{
				"checksum": func(ctx context.Context, args []wire.Arg) ([]wire.Arg, error) {
					v, ok := wire.GetArg(args, "data")
					if !ok {
						return nil, fmt.Errorf("checksum: missing data")
					}
					data, ok := v.([]float64)
					if !ok {
						return nil, fmt.Errorf("checksum: data is %T", v)
					}
					var sum float64
					for _, x := range data {
						sum += x
					}
					return wire.Args("sum", sum), nil
				},
			},
		}
	})
}
