package bench

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"harness2/internal/registry"
	"harness2/internal/soap"
)

// allocsPer reports the mean heap allocations per invocation of fn.
func allocsPer(reps int, fn func()) float64 {
	if reps < 1 {
		reps = 1
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < reps; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(reps)
}

// E14FastPath measures the SOAP data-plane fast path and the discovery
// cache (DESIGN.md S29):
//
//   - streaming envelope decode vs the DOM ablation (Codec.DisableFastPath)
//     over packed double arrays, the dominant kernel payload;
//   - pooled append-based encode: wall time and allocations per envelope;
//   - keep-alive vs per-call connections for small SOAP RPCs over loopback;
//   - client-side discovery: remote FindByName vs a cache hit, plus the
//     pass-through overhead of a disabled cache against a local source.
func E14FastPath(sizes []int) (*Table, error) {
	t := &Table{
		ID:    "E14",
		Title: "SOAP fast path: streaming codec, pooled buffers, keep-alive, discovery cache",
		Note: "decode variants share one packed-base64 envelope; 'dom' is the " +
			"DisableFastPath ablation; discovery rows run against a loopback registry",
		Columns: []string{"stage", "variant", "per op", "vs baseline"},
	}
	fast := soap.Codec{Arrays: soap.EncodeBase64}
	dom := soap.Codec{Arrays: soap.EncodeBase64, DisableFastPath: true}

	// --- decode: streaming scan vs DOM, per payload size ---
	for _, n := range sizes {
		payload := RandDoubles(n, 14)
		call := &soap.Call{Method: "put", Params: []soap.Param{{Name: "vals", Value: payload}}}
		env, err := fast.EncodeCall(call)
		if err != nil {
			return nil, err
		}
		reps := repsFor(n)
		domPer := timeIt(reps, func() {
			if _, err := dom.DecodeCall(env); err != nil {
				panic(err)
			}
		})
		fastPer := timeIt(reps*4, func() {
			if _, err := fast.DecodeCall(env); err != nil {
				panic(err)
			}
		})
		label := fmt.Sprintf("decode %d doubles", n)
		t.AddRow(label, "dom", FmtDur(domPer), FmtRatio(1))
		t.AddRow(label, "fast", FmtDur(fastPer),
			FmtRatio(float64(domPer)/float64(fastPer)))
	}

	// --- encode: pooled append path, time and allocations ---
	{
		n := sizes[len(sizes)/2]
		payload := RandDoubles(n, 15)
		call := &soap.Call{Method: "put", Params: []soap.Param{{Name: "vals", Value: payload}}}
		reps := repsFor(n) * 4
		encode := func() {
			buf := soap.AcquireBuffer()
			out, err := fast.AppendCall(*buf, call)
			if err != nil {
				panic(err)
			}
			*buf = out[:0]
			soap.ReleaseBuffer(buf)
		}
		encode() // warm the pool before counting
		per := timeIt(reps, encode)
		allocs := allocsPer(reps, encode)
		label := fmt.Sprintf("encode %d doubles", n)
		t.AddRow(label, "pooled append", FmtDur(per),
			fmt.Sprintf("%.1f allocs/op", allocs))
	}

	// --- transport: keep-alive pool vs fresh connection per call ---
	{
		srv := soap.NewServer()
		srv.Handle("echo", func(call *soap.Call) ([]soap.Param, error) {
			return call.Params, nil
		})
		hs := httptest.NewServer(srv)
		defer hs.Close()
		call := &soap.Call{Method: "echo", Params: []soap.Param{{Name: "x", Value: int64(7)}}}

		perCallTransport := soap.Transport.Clone()
		perCallTransport.DisableKeepAlives = true
		cold := soap.Client{HTTP: &http.Client{Transport: perCallTransport, Timeout: 30 * time.Second}}
		warm := soap.Client{} // SharedHTTP: tuned keep-alive pool

		reps := 300
		coldPer := timeIt(reps, func() {
			if _, err := cold.CallRemote(context.Background(), hs.URL, call); err != nil {
				panic(err)
			}
		})
		warmPer := timeIt(reps, func() {
			if _, err := warm.CallRemote(context.Background(), hs.URL, call); err != nil {
				panic(err)
			}
		})
		t.AddRow("small RPC loopback", "new conn per call", FmtDur(coldPer), FmtRatio(1))
		t.AddRow("small RPC loopback", "keep-alive pool", FmtDur(warmPer),
			FmtRatio(float64(coldPer)/float64(warmPer)))
	}

	// --- discovery: remote find vs cache hit; disabled-cache overhead ---
	{
		reg := registry.New()
		if _, err := reg.Publish(registry.Entry{Name: "WSTime", WSDL: timeWSDL()}); err != nil {
			return nil, err
		}
		regSrv := httptest.NewServer(registry.NewServer(reg))
		defer regSrv.Close()
		remote := registry.NewRemote(regSrv.URL)

		reps := 200
		remotePer := timeIt(reps, func() {
			if got := remote.FindByName("WSTime"); len(got) != 1 {
				panic("find miss")
			}
		})
		cache := registry.NewCache(remote, time.Hour)
		cache.FindByName("WSTime") // fill
		hitPer := timeIt(reps*1000, func() {
			if got := cache.FindByName("WSTime"); len(got) != 1 {
				panic("cache miss")
			}
		})
		t.AddRow("discover by name", "remote SOAP find", FmtDur(remotePer), FmtRatio(1))
		t.AddRow("discover by name", "cache hit", FmtDur(hitPer),
			FmtRatio(float64(remotePer)/float64(hitPer)))

		// Pass-through overhead of a disabled cache, against the local
		// registry so the delta is not drowned by network time.
		directReps := 300_000
		directPer := timeIt(directReps, func() { reg.Get("svc-1") })
		off := registry.NewCache(reg, 0)
		offPer := timeIt(directReps, func() { off.Get("svc-1") })
		t.AddRow("local get", "direct", FmtDur(directPer), FmtRatio(1))
		t.AddRow("local get", "disabled cache", FmtDur(offPer),
			fmt.Sprintf("+%dns", max64(0, offPer.Nanoseconds()-directPer.Nanoseconds())))
	}
	return t, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// timeWSDL produces a small valid WSDL document for discovery rows.
func timeWSDL() string {
	return `<definitions name="WSTime" targetNamespace="urn:harness:WSTime"
  xmlns="http://schemas.xmlsoap.org/wsdl/"
  xmlns:soap="http://schemas.xmlsoap.org/wsdl/soap/">
  <portType name="WSTimePortType">
    <operation name="getTime">
      <input message="getTimeRequest"/>
      <output message="getTimeResponse"/>
    </operation>
  </portType>
  <binding name="WSTimeSOAP" type="WSTimePortType">
    <soap:binding transport="http://schemas.xmlsoap.org/soap/http"/>
    <operation name="getTime"/>
  </binding>
  <service name="WSTime">
    <port name="WSTimeSOAPPort" binding="WSTimeSOAP">
      <soap:address location="http://127.0.0.1:1/services/t1"/>
    </port>
  </service>
</definitions>`
}
