package soap

// HTTP-plane counterpart of the XDR v3 wire compression (S33): a standard
// Content-Encoding: gzip middleware for the registry's SOAP surface. The
// negotiation is pure HTTP — the client's Accept-Encoding header replaces
// the XDR dial-time codec word — so stale peers interoperate for free.

import (
	"bufio"
	"compress/gzip"
	"io"
	"net/http"
	"strings"
	"sync"
)

// gzipMinLen is the response-size floor below which compression is not
// attempted: tiny SOAP faults and probes cost more in header bytes and
// CPU than they save.
const gzipMinLen = 512

var gzipWriters = sync.Pool{
	New: func() any {
		zw, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed)
		return zw
	},
}

// gunzipper is the client-side mirror of gzipWriters: an inflater reused
// across replies via Reset, window and all. The bufio.Reader rides along
// because gzip.Reader.Reset allocates one per call for any source that is
// not an io.ByteReader, which an HTTP response body is not.
type gunzipper struct {
	br *bufio.Reader
	zr gzip.Reader
}

var gunzippers = sync.Pool{
	New: func() any { return &gunzipper{br: bufio.NewReader(nil)} },
}

// appendGunzip inflates the gzip stream r to EOF, appending into dst.
func appendGunzip(dst []byte, r io.Reader) ([]byte, error) {
	g := gunzippers.Get().(*gunzipper)
	defer func() {
		g.br.Reset(nil) // do not keep the reply body alive from the pool
		gunzippers.Put(g)
	}()
	g.br.Reset(r)
	if err := g.zr.Reset(g.br); err != nil {
		return dst, err
	}
	return AppendReadAll(dst, &g.zr, 0)
}

// gzipResponseWriter buffers the status until the first body write so it
// can decide raw-versus-gzip once the handler has set Content-Type, then
// streams through a pooled gzip.Writer.
type gzipResponseWriter struct {
	http.ResponseWriter
	zw          *gzip.Writer
	status      int
	wroteHeader bool
	// small first-write buffer so sub-floor responses ship raw
	pending []byte
	decided bool
	useGzip bool
}

func (g *gzipResponseWriter) WriteHeader(status int) {
	if g.wroteHeader {
		return
	}
	g.status = status
	g.wroteHeader = true
}

func (g *gzipResponseWriter) Write(p []byte) (int, error) {
	if !g.wroteHeader {
		g.WriteHeader(http.StatusOK)
	}
	if !g.decided {
		if len(g.pending)+len(p) < gzipMinLen {
			g.pending = append(g.pending, p...)
			return len(p), nil
		}
		g.decide(true) // flushes the buffered prefix; p follows uncopied
	}
	if g.useGzip {
		return g.zw.Write(p)
	}
	return g.ResponseWriter.Write(p)
}

// decide commits to gzip or raw, flushes any buffered prefix, and emits
// the response headers.
func (g *gzipResponseWriter) decide(useGzip bool) {
	g.decided = true
	g.useGzip = useGzip
	h := g.ResponseWriter.Header()
	if useGzip {
		h.Set("Content-Encoding", "gzip")
		h.Del("Content-Length")
		h.Add("Vary", "Accept-Encoding")
		g.zw = gzipWriters.Get().(*gzip.Writer)
		g.zw.Reset(g.ResponseWriter)
	}
	g.ResponseWriter.WriteHeader(g.status)
	if len(g.pending) > 0 {
		if useGzip {
			_, _ = g.zw.Write(g.pending)
		} else {
			_, _ = g.ResponseWriter.Write(g.pending)
		}
		g.pending = nil
	}
}

// finish flushes whatever path was chosen and returns the pooled writer.
func (g *gzipResponseWriter) finish() {
	if !g.decided {
		// Response never reached the floor (or was empty): ship raw.
		if !g.wroteHeader {
			return // handler wrote nothing; leave the writer untouched
		}
		g.decide(false)
		return
	}
	if g.useGzip {
		_ = g.zw.Close()
		gzipWriters.Put(g.zw)
		g.zw = nil
	}
}

// Gzip wraps next with response compression for clients that send
// Accept-Encoding: gzip. Responses below a size floor ship identity, so
// the middleware is safe to leave on unconditionally.
func Gzip(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") ||
			r.Header.Get("Range") != "" {
			next.ServeHTTP(w, r)
			return
		}
		gw := &gzipResponseWriter{ResponseWriter: w}
		defer gw.finish()
		next.ServeHTTP(gw, r)
	})
}
