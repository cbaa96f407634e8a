package soap

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"harness2/internal/wire"
)

func TestHeaderRoundTrip(t *testing.T) {
	c := Codec{}
	call := &Call{
		Method: "op",
		Headers: []Header{
			{Name: "transaction", Value: "txn-42", MustUnderstand: true},
			{Name: "priority", Value: int32(7)},
			{Name: "route", Value: "via <gw>", Actor: "urn:harness2:gateway"},
		},
		Params: []Param{{"x", 1.5}},
	}
	data, err := c.EncodeCall(call)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.DecodeCall(data)
	if err != nil {
		t.Fatalf("%v\n%s", err, data)
	}
	if len(got.Headers) != 3 {
		t.Fatalf("headers = %d", len(got.Headers))
	}
	h0 := got.Headers[0]
	if h0.Name != "transaction" || h0.Value.(string) != "txn-42" || !h0.MustUnderstand {
		t.Fatalf("h0 = %+v", h0)
	}
	h1 := got.Headers[1]
	if h1.Name != "priority" || h1.Value.(int32) != 7 || h1.MustUnderstand {
		t.Fatalf("h1 = %+v", h1)
	}
	h2 := got.Headers[2]
	if h2.Actor != "urn:harness2:gateway" || h2.Value.(string) != "via <gw>" {
		t.Fatalf("h2 = %+v", h2)
	}
	// Body untouched.
	if got.Params[0].Value.(float64) != 1.5 {
		t.Fatalf("params = %v", got.Params)
	}
}

func TestNoHeaderSectionWhenEmpty(t *testing.T) {
	c := Codec{}
	data, err := c.EncodeCall(&Call{Method: "op"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "<SOAP-ENV:Header>") {
		t.Fatalf("empty header section emitted:\n%s", data)
	}
}

func TestServerMustUnderstand(t *testing.T) {
	s := NewServer()
	s.Handle("op", func(call *Call) ([]Param, error) {
		return []Param{{"ok", true}}, nil
	})
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := &Client{}

	// Un-understood mustUnderstand header: MustUnderstand fault.
	_, err := c.CallRemote(context.Background(), ts.URL, &Call{Method: "op",
		Headers: []Header{{Name: "exotic", Value: "x", MustUnderstand: true}}})
	var f *Fault
	if !errors.As(err, &f) || f.Code != "MustUnderstand" {
		t.Fatalf("err = %v", err)
	}
	// Same header without mustUnderstand: ignored, call succeeds.
	out, err := c.CallRemote(context.Background(), ts.URL, &Call{Method: "op",
		Headers: []Header{{Name: "exotic", Value: "x"}}})
	if err != nil || !out[0].Value.(bool) {
		t.Fatalf("out=%v err=%v", out, err)
	}
	// Declared understood: succeeds.
	s.Understand("exotic")
	out, err = c.CallRemote(context.Background(), ts.URL, &Call{Method: "op",
		Headers: []Header{{Name: "exotic", Value: "x", MustUnderstand: true}}})
	if err != nil || !out[0].Value.(bool) {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestHandlerSeesHeaders(t *testing.T) {
	s := NewServer()
	s.Understand("tenant")
	var seen []Header
	s.Handle("op", func(call *Call) ([]Param, error) {
		seen = call.Headers
		return nil, nil
	})
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := &Client{}
	if _, err := c.CallRemote(context.Background(), ts.URL, &Call{Method: "op",
		Headers: []Header{{Name: "tenant", Value: "acme", MustUnderstand: true}}}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0].Value.(string) != "acme" {
		t.Fatalf("seen = %+v", seen)
	}
}

func TestHeaderArrayValue(t *testing.T) {
	// Non-string header values use the body encoding, including packed
	// arrays, and survive the trip with attributes intact.
	c := Codec{}
	data, err := c.EncodeCall(&Call{Method: "op", Headers: []Header{
		{Name: "weights", Value: []float64{1, 2, 3}, MustUnderstand: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.DecodeCall(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Headers) != 1 || !got.Headers[0].MustUnderstand {
		t.Fatalf("headers = %+v", got.Headers)
	}
	if !wire.Equal(got.Headers[0].Value, []float64{1, 2, 3}) {
		t.Fatalf("value = %v", got.Headers[0].Value)
	}
}
