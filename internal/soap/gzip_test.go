package soap

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

func gzipGet(t *testing.T, h http.Handler, acceptGzip bool) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", "/", nil)
	if acceptGzip {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	rec := httptest.NewRecorder()
	Gzip(h).ServeHTTP(rec, req)
	return rec
}

func TestGzipLargeResponse(t *testing.T) {
	body := strings.Repeat("<item>soap envelope</item>", 200) // well over floor
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/xml")
		_, _ = io.WriteString(w, body)
	})
	rec := gzipGet(t, h, true)
	if rec.Header().Get("Content-Encoding") != "gzip" {
		t.Fatalf("Content-Encoding = %q", rec.Header().Get("Content-Encoding"))
	}
	if rec.Body.Len() >= len(body) {
		t.Fatalf("compressed %d >= raw %d", rec.Body.Len(), len(body))
	}
	zr, err := gzip.NewReader(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != body {
		t.Fatal("round trip mismatch")
	}
	if rec.Header().Get("Content-Type") != "text/xml" {
		t.Fatal("Content-Type lost")
	}
}

func TestGzipSmallResponseStaysRaw(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "tiny")
	})
	rec := gzipGet(t, h, true)
	if rec.Header().Get("Content-Encoding") != "" {
		t.Fatalf("tiny response compressed")
	}
	if rec.Body.String() != "tiny" {
		t.Fatalf("body = %q", rec.Body.String())
	}
}

func TestGzipRespectsAcceptEncoding(t *testing.T) {
	body := strings.Repeat("x", 4096)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, body)
	})
	rec := gzipGet(t, h, false)
	if rec.Header().Get("Content-Encoding") != "" {
		t.Fatal("compressed without Accept-Encoding: gzip")
	}
	if rec.Body.String() != body {
		t.Fatal("body altered")
	}
}

func TestGzipPreservesStatus(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = io.WriteString(w, strings.Repeat("fault!", 200))
	})
	rec := gzipGet(t, h, true)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d", rec.Code)
	}
	if rec.Header().Get("Content-Encoding") != "gzip" {
		t.Fatal("large fault body should still compress")
	}
}

func TestGzipEmptyResponse(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	rec := gzipGet(t, h, true)
	if rec.Code != http.StatusNoContent || rec.Body.Len() != 0 {
		t.Fatalf("code=%d len=%d", rec.Code, rec.Body.Len())
	}
	if rec.Header().Get("Content-Encoding") != "" {
		t.Fatal("empty response must not claim gzip")
	}
}

func TestGzipMultiWriteAccumulates(t *testing.T) {
	// Many small writes crossing the floor mid-stream must all survive.
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for i := 0; i < 100; i++ {
			_, _ = io.WriteString(w, "chunk-0123456789")
		}
	})
	rec := gzipGet(t, h, true)
	if rec.Header().Get("Content-Encoding") != "gzip" {
		t.Fatal("expected gzip")
	}
	zr, err := gzip.NewReader(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(zr)
	if len(got) != 1600 {
		t.Fatalf("decoded %d bytes, want 1600", len(got))
	}
}

// docServer serves one action, "doc", whose reply is a compressible
// document well over the gzip floor — the shape of a registry find reply —
// behind Gzip, and records the Accept-Encoding of every request.
func docServer(t testing.TB) (url, doc string, asked func() []string) {
	t.Helper()
	doc = strings.Repeat(`<wsdl:part name="in" type="xsd:double"/>`, 64)
	s := NewServer()
	s.Handle("doc", func(*Call) ([]Param, error) {
		return []Param{{Name: "wsdl", Value: doc}, {Name: "n", Value: int64(64)}}, nil
	})
	var (
		mu  sync.Mutex
		log []string
	)
	zipped := Gzip(s)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		log = append(log, r.Header.Get("Accept-Encoding"))
		mu.Unlock()
		zipped.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv.URL, doc, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(log)
	}
}

// offHost returns rawURL with its loopback host swapped for a name that is
// not this machine's on the face of it, and a transport that reaches the
// same listener under that name: what a client on another host sees.
func offHost(t testing.TB, rawURL string) (string, *http.Transport) {
	t.Helper()
	u, err := url.Parse(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	listener := u.Host
	u.Host = "registry.test:" + u.Port()
	tr := &http.Transport{DialContext: func(ctx context.Context, network, _ string) (net.Conn, error) {
		return (&net.Dialer{}).DialContext(ctx, network, listener)
	}}
	t.Cleanup(tr.CloseIdleConnections)
	return u.String(), tr
}

// encodingSpy records the Content-Encoding of every reply it carries.
type encodingSpy struct {
	http.RoundTripper
	seen []string
}

func (e *encodingSpy) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := e.RoundTripper.RoundTrip(req)
	if err == nil {
		e.seen = append(e.seen, resp.Header.Get("Content-Encoding"))
	}
	return resp, err
}

// TestCallRemoteGzipMatchesIdentity: one server behind Gzip, reached under
// an off-host name and over loopback. Off-host the client negotiates gzip
// itself (net/http's transparent path would hide the Content-Encoding
// header from the spy); a same-host client asks for identity and is
// answered uncompressed; the reply decodes to the same parameters.
func TestCallRemoteGzipMatchesIdentity(t *testing.T) {
	loopback, doc, asked := docServer(t)
	remote, tr := offHost(t, loopback)
	spy := &encodingSpy{RoundTripper: tr}
	c := Client{HTTP: &http.Client{Transport: spy}}
	var replies [2][]Param
	for i, url := range []string{remote, loopback} {
		// Twice each, so the second gzipped reply inflates through a
		// pooled, Reset reader.
		for range 2 {
			out, err := c.CallRemote(context.Background(), url, &Call{Method: "doc"})
			if err != nil {
				t.Fatal(err)
			}
			replies[i] = out
		}
	}
	if want := []string{"gzip", "gzip", "identity", "identity"}; !slices.Equal(asked(), want) {
		t.Fatalf("Accept-Encoding asked = %q, want %q", asked(), want)
	}
	if want := []string{"gzip", "gzip", "", ""}; !slices.Equal(spy.seen, want) {
		t.Fatalf("Content-Encoding seen = %q, want %q", spy.seen, want)
	}
	if !reflect.DeepEqual(replies[0], replies[1]) {
		t.Fatalf("gzip reply %v != identity reply %v", replies[0], replies[1])
	}
	if got, _ := replies[0][0].Value.(string); got != doc {
		t.Fatalf("document altered in transit: %d bytes, want %d", len(got), len(doc))
	}
}

func TestSameHost(t *testing.T) {
	cases := map[string]bool{
		"localhost": true, "127.0.0.1": true, "127.8.9.1": true, "::1": true,
		"registry.test": false, "10.0.0.7": false, "localhost.example.org": false, "": false,
	}
	// The machine's own name counts (the shm rung advertises it), unless
	// this box is called something the table says is elsewhere.
	if hn, err := os.Hostname(); err == nil && hn != "" {
		if _, listed := cases[hn]; !listed {
			cases[hn] = true
			cases[hn+".example.org"] = false
		}
	}
	for host, want := range cases {
		if got := SameHost(host); got != want {
			t.Errorf("SameHost(%q) = %v, want %v", host, got, want)
		}
	}
}

// TestCallRemoteGzipAllocs holds the pooled inflater's point: a gzipped
// reply must not cost a fresh inflate window. testing.Benchmark counts the
// whole process, so the bound covers client, in-process server and codec
// together: about 11.5 KB/op pooled, against 70 KB/op when every reply
// built its own gzip.Reader.
func TestCallRemoteGzipAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	loopback, _, asked := docServer(t)
	url, tr := offHost(t, loopback)
	c := Client{HTTP: &http.Client{Transport: tr}}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.CallRemote(context.Background(), url, &Call{Method: "doc"}); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := asked()[0]; got != "gzip" {
		t.Fatalf("the off-host client asked for %q, want gzip", got)
	}
	t.Logf("%d B/op, %d allocs/op over %d calls", res.AllocedBytesPerOp(), res.AllocsPerOp(), res.N)
	if got := res.AllocedBytesPerOp(); got > 16<<10 {
		t.Fatalf("CallRemote against a gzip server allocates %d B/op, want <= %d", got, 16<<10)
	}
}
