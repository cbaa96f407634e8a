package soap_test

import (
	"testing"
	"time"

	"harness2/internal/registry"
	"harness2/internal/soap"
	"harness2/internal/wire"
	"harness2/internal/wsdl"
)

// The registry's find answer is the text plane's largest envelope on the
// paper's find → parse → invoke loop: one entry whose WSDL column holds a
// whole description, escaped on the way out and unescaped on the way in.
// These two benchmarks time that envelope through the server's encode and
// the client's decode, with a description shaped like the benchmark's
// three-operation echo service advertised on every binding.

func findAnswer(b *testing.B) []soap.Param {
	arr := []wsdl.ParamSpec{{Name: "data", Type: wire.KindFloat64Array}}
	x := []wsdl.ParamSpec{{Name: "x", Type: wire.KindFloat64}}
	defs, err := wsdl.Generate(wsdl.ServiceSpec{Name: "BenchEcho", Operations: []wsdl.OpSpec{
		{Name: "echo1", Input: x, Output: x},
		{Name: "echo1k", Input: arr, Output: arr},
		{Name: "scale", Input: append([]wsdl.ParamSpec{{Name: "factor", Type: wire.KindFloat64}}, arr...), Output: arr},
	}}, wsdl.EndpointSet{
		SOAPAddress:  "http://127.0.0.1:40123/services/echo",
		HTTPAddress:  "http://127.0.0.1:40123/rest/echo",
		XDRAddress:   "127.0.0.1:40124",
		ShmAddress:   "shm:benchhost:/tmp/harness-shm-40124.sock",
		LocalAddress: "local:bench-node/echo",
		Class:        "BenchEcho",
		Instance:     "echo",
	})
	if err != nil {
		b.Fatal(err)
	}
	return registry.MarshalEntries([]registry.Entry{{
		Key: "svc-00042::std", Name: "svc-00042", Business: "benchmark",
		WSDL: defs.String(), LeaseRemaining: 30 * time.Second,
	}})
}

func BenchmarkFindAnswerEncode(b *testing.B) {
	params := findAnswer(b)
	var c soap.Codec
	buf, err := c.AppendResponse(nil, "findByName", params)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = c.AppendResponse(buf[:0], "findByName", params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFindAnswerDecode(b *testing.B) {
	var c soap.Codec
	reply, err := c.AppendResponse(nil, "findByName", findAnswer(b))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(reply)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := c.DecodeResponse(reply)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := registry.UnmarshalEntries(out.Params); err != nil {
			b.Fatal(err)
		}
	}
}
