package invoke

import (
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"harness2/internal/container"
	"harness2/internal/wire"
	"harness2/internal/xdr"
)

// TestXDRRequestDecoderNeverPanics feeds random byte soup to the request
// decoder: every input must yield a value or an error, never a panic or
// an allocation explosion.
func TestXDRRequestDecoderNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 5000; i++ {
		b := make([]byte, r.Intn(256))
		r.Read(b)
		_, _, _, _ = decodeRequest(nil, b)
	}
	// Structured-prefix corruption: take a valid frame and flip bytes.
	e := xdr.NewEncoder(64)
	if err := encodeRequest(e, "inst", "op", wire.Args("a", []float64{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	valid := e.Bytes()
	for i := 0; i < len(valid); i++ {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0xFF
		_, _, _, _ = decodeRequest(nil, mut)
	}
}

// TestXDRDecodersRefuseHostileCounts: a 20-byte frame that claims 65536
// arguments (or results) must be refused by looking at the frame, not by
// first building a 2 MB argument slice for it.
func TestXDRDecodersRefuseHostileCounts(t *testing.T) {
	e := xdr.NewEncoder(32)
	e.String("i")
	e.String("op")
	e.Uint32(xdr.MaxArgs)
	e.Uint32(0) // 4 bytes of "arguments"
	req := append([]byte(nil), e.Bytes()...)
	e.Reset()
	e.Uint32(0) // status ok
	e.Uint32(xdr.MaxArgs)
	e.Uint32(0)
	resp := append([]byte(nil), e.Bytes()...)

	var arena xdr.Arena
	for name, decode := range map[string]func() error{
		"request":       func() error { _, _, _, err := decodeRequest(nil, req); return err },
		"request/arena": func() error { _, _, _, err := decodeRequest(&arena, req); return err },
		"response":      func() error { _, err := decodeResponse(resp); return err },
	} {
		if err := decode(); err == nil {
			t.Errorf("%s: hostile count accepted", name)
		}
		// The error itself and the two header strings are all that may be
		// allocated: well under the 2 MB the count asks for.
		if per := allocBytesPerOp(10, func() { _ = decode() }); per > 1024 {
			t.Errorf("%s: %d bytes allocated per hostile frame", name, per)
		}
	}
}

// TestXDRResponseDecoderNeverPanics does the same for the response side.
func TestXDRResponseDecoderNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(100))
	for i := 0; i < 5000; i++ {
		b := make([]byte, r.Intn(256))
		r.Read(b)
		_, _ = decodeResponse(b)
	}
	e := xdr.NewEncoder(64)
	if err := encodeResponse(e, wire.Args("x", int64(1))); err != nil {
		t.Fatal(err)
	}
	valid := e.Bytes()
	for i := 0; i < len(valid); i++ {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0xFF
		_, _ = decodeResponse(mut)
	}
}

// FuzzParseLocalAddress fuzzes the JavaObject locator parser. Invariants:
// never panic; on success both components are non-empty, the container
// name holds no separator, and the locator reassembles byte-for-byte
// (the parser splits at the *first* '/', so the instance keeps any rest).
func FuzzParseLocalAddress(f *testing.F) {
	for _, seed := range []string{
		"local:node1/m1",         // the canonical form
		"local:node1/m1/extra",   // instance keeps trailing segments
		"local:",                 // nothing after the scheme
		"local:onlycontainer",    // no separator
		"local:/inst",            // empty container
		"local:c/",               // empty instance
		"http://host/x",          // wrong scheme
		"",                       // empty input
		"LOCAL:node1/m1",         // scheme is case-sensitive
		"local:a//b",             // empty-looking middle
		"local:ünïcode/instance", // non-ASCII survives
		"local:c/i\x00withnul",   // control bytes are data, not errors
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, addr string) {
		c, i, err := ParseLocalAddress(addr)
		if err != nil {
			if c != "" || i != "" {
				t.Fatalf("error with non-zero results: %q %q", c, i)
			}
			return
		}
		if c == "" || i == "" {
			t.Fatalf("success with empty component: container=%q instance=%q", c, i)
		}
		if strings.ContainsRune(c, '/') {
			t.Fatalf("container %q contains separator", c)
		}
		if got := "local:" + c + "/" + i; got != addr {
			t.Fatalf("reassembly %q != input %q", got, addr)
		}
	})
}

// TestXDRServerSurvivesGarbageConnections throws raw garbage at a live
// XDR listener: the server must stay up and keep serving well-formed
// clients afterwards.
func TestXDRServerSurvivesGarbageConnections(t *testing.T) {
	c := container.New(container.Config{Name: "fz"})
	c.RegisterFactory("Counter", counterImpl())
	if _, _, err := c.Deploy("Counter", "c1"); err != nil {
		t.Fatal(err)
	}
	srv, err := NewXDRServer(c, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	r := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		junk := make([]byte, r.Intn(512)+1)
		r.Read(junk)
		_, _ = conn.Write(junk)
		// Some of these look like huge frame headers; the server must
		// reject or hang up, not crash.
		_ = conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		buf := make([]byte, 64)
		_, _ = conn.Read(buf)
		_ = conn.Close()
	}
	// A correct client still works.
	p := NewXDRPort(srv.Addr(), "c1")
	defer p.Close()
	out, err := p.Invoke(t.Context(), "inc", wire.Args("by", int64(5)))
	if err != nil {
		t.Fatal(err)
	}
	total, _ := wire.GetArg(out, "total")
	if total.(int64) != 5 {
		t.Fatalf("total = %v", total)
	}
}

// TestXDRServerRejectsOversizedFrame confirms the frame-length guard.
func TestXDRServerRejectsOversizedFrame(t *testing.T) {
	c := container.New(container.Config{Name: "fz2"})
	srv, err := NewXDRServer(c, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A proper opening, then a frame header declaring 4 GiB.
	if _, err := conn.Write([]byte("HXD3\x00\x00\x00\x01\xff\xff\xff\xff\x00\x00\x00\x00\x00\x00\x00\x01\x00")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	// The answer word, then the hang-up: a response frame would mean the
	// server tried to allocate the absurd frame (xdr.MaxLen guards it).
	buf := make([]byte, 16)
	if n, err := io.ReadFull(conn, buf); n != 4 || err != io.ErrUnexpectedEOF {
		t.Fatalf("read %d bytes, err %v; want the 4-byte answer and then EOF", n, err)
	}
}
