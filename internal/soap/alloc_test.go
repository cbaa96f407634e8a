//go:build !race

package soap_test

import (
	"testing"
	"time"

	"harness2/internal/registry"
	"harness2/internal/soap"
)

// TestDecodeAllocationCeiling holds the streaming decoder's allocations
// on a registry find reply and on a scalar call at what they were before
// the lexical forms moved to wire/text.go (go1.24, linux/amd64): the
// shared parsers take scanner bytes, so sharing them costs no copies.
// Not built under the race detector, whose sync.Pool drops items.
func TestDecodeAllocationCeiling(t *testing.T) {
	c := soap.Codec{}
	reply, err := c.EncodeResponse("findByName", registry.MarshalEntries([]registry.Entry{{
		Key: "k-1", Name: "MatMul", Business: "node-1",
		WSDL:           `<definitions name="MatMul"><service name="MatMul"/></definitions>`,
		LeaseRemaining: 30 * time.Second,
	}}))
	if err != nil {
		t.Fatal(err)
	}
	call, err := c.EncodeCall(&soap.Call{Method: "m", Params: []soap.Param{
		{Name: "s", Value: "hello"}, {Name: "n", Value: int64(123456789)}, {Name: "d", Value: 3.25},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		ceiling float64
		decode  func()
	}{
		{"DecodeResponse(MarshalEntries)", 23, func() { _, _ = c.DecodeResponse(reply) }},
		{"DecodeCall(string, long, double)", 7, func() { _, _ = c.DecodeCall(call) }},
	} {
		if got := testing.AllocsPerRun(200, tc.decode); got > tc.ceiling {
			t.Errorf("%s allocates %v times, ceiling %v", tc.name, got, tc.ceiling)
		}
	}
}
