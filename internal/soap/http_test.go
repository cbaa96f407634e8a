package soap

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"harness2/internal/wire"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer()
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func TestHTTPInvoke(t *testing.T) {
	s, ts := newTestServer(t)
	s.Handle("add", func(call *Call) ([]Param, error) {
		a := call.Params[0].Value.(float64)
		b := call.Params[1].Value.(float64)
		return []Param{{"sum", a + b}}, nil
	})
	c := &Client{}
	out, err := c.CallRemote(context.Background(), ts.URL, &Call{Method: "add", Params: []Param{{"a", 2.0}, {"b", 3.0}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Value.(float64) != 5 {
		t.Fatalf("out = %v", out)
	}
}

func TestHTTPArrayPayload(t *testing.T) {
	s, ts := newTestServer(t)
	s.Handle("scale", func(call *Call) ([]Param, error) {
		in := call.Params[0].Value.([]float64)
		k := call.Params[1].Value.(float64)
		out := make([]float64, len(in))
		for i, v := range in {
			out[i] = v * k
		}
		return []Param{{"out", out}}, nil
	})
	c := &Client{}
	out, err := c.CallRemote(context.Background(), ts.URL, &Call{Method: "scale",
		Params: []Param{{"in", []float64{1, 2, 3}}, {"k", 2.0}}})
	if err != nil {
		t.Fatal(err)
	}
	if !wire.Equal(out[0].Value, []float64{2, 4, 6}) {
		t.Fatalf("out = %v", out[0].Value)
	}
}

func TestHTTPFaultPropagation(t *testing.T) {
	s, ts := newTestServer(t)
	s.Handle("boom", func(call *Call) ([]Param, error) {
		return nil, errors.New("kernel exploded")
	})
	s.Handle("faulty", func(call *Call) ([]Param, error) {
		return nil, &Fault{Code: "Client", String: "bad arguments"}
	})
	c := &Client{}
	_, err := c.CallRemote(context.Background(), ts.URL, &Call{Method: "boom"})
	var f *Fault
	if !errors.As(err, &f) || f.Code != "Server" || !strings.Contains(f.String, "kernel exploded") {
		t.Fatalf("err = %v", err)
	}
	_, err = c.CallRemote(context.Background(), ts.URL, &Call{Method: "faulty"})
	if !errors.As(err, &f) || f.Code != "Client" || f.String != "bad arguments" {
		t.Fatalf("err = %v", err)
	}
}

func TestHTTPUnknownAction(t *testing.T) {
	_, ts := newTestServer(t)
	c := &Client{}
	_, err := c.CallRemote(context.Background(), ts.URL, &Call{Method: "missing"})
	var f *Fault
	if !errors.As(err, &f) || f.Code != "Client" {
		t.Fatalf("err = %v", err)
	}
}

func TestHTTPMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestHandleRemoveActions(t *testing.T) {
	s := NewServer()
	h := func(*Call) ([]Param, error) { return nil, nil }
	s.Handle("a", h)
	s.Handle("b", h)
	if got := s.Actions(); len(got) != 2 {
		t.Fatalf("actions = %v", got)
	}
	s.Remove("a")
	if got := s.Actions(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("actions = %v", got)
	}
}

func TestHTTPConcurrentClients(t *testing.T) {
	s, ts := newTestServer(t)
	s.Handle("echo", func(call *Call) ([]Param, error) {
		return call.Params, nil
	})
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(n int32) {
			defer wg.Done()
			c := &Client{}
			out, err := c.CallRemote(context.Background(), ts.URL, &Call{Method: "echo", Params: []Param{{"n", n}}})
			if err != nil {
				errs <- err
				return
			}
			if out[0].Value.(int32) != n {
				errs <- errors.New("echo mismatch")
			}
		}(int32(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestSOAPActionHeaderDispatch(t *testing.T) {
	// When SOAPAction names a different registered action, the header wins,
	// matching the SOAP 1.1 HTTP binding.
	s, ts := newTestServer(t)
	s.Handle("viaHeader", func(call *Call) ([]Param, error) {
		return []Param{{"who", "header"}}, nil
	})
	c := &Client{}
	data, err := c.Codec.EncodeCall(&Call{Method: "viaHeader"})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", ts.URL, strings.NewReader(string(data)))
	_ = req
	out, err := c.CallRemote(context.Background(), ts.URL, &Call{Method: "viaHeader"})
	if err != nil || out[0].Value.(string) != "header" {
		t.Fatalf("out=%v err=%v", out, err)
	}
}
