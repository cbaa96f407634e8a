package soap

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"harness2/internal/telemetry"
)

// Handler processes one RPC call and returns the output parameters.
// Returning a *Fault transmits it verbatim; any other error becomes a
// Server fault.
type Handler func(call *Call) ([]Param, error)

// Server dispatches SOAP-over-HTTP requests to registered handlers.
// Dispatch is by SOAPAction header when present, else by the body's
// method name. It implements http.Handler.
type Server struct {
	Codec Codec

	mu         sync.RWMutex
	handlers   map[string]Handler
	understood map[string]bool
}

// NewServer returns an empty dispatcher.
func NewServer() *Server {
	return &Server{handlers: make(map[string]Handler), understood: make(map[string]bool)}
}

// Understand declares header entry names this server processes. Requests
// carrying a mustUnderstand header outside this set are refused with a
// MustUnderstand fault, per SOAP 1.1 §4.2.3.
func (s *Server) Understand(names ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range names {
		s.understood[n] = true
	}
}

// checkMustUnderstand returns the first offending header name, if any.
func (s *Server) checkMustUnderstand(call *Call) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, h := range call.Headers {
		if h.MustUnderstand && !s.understood[h.Name] {
			return h.Name, false
		}
	}
	return "", true
}

// Handle registers a handler for the given action (method) name.
// Registering a name twice replaces the previous handler.
func (s *Server) Handle(action string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[action] = h
}

// Remove unregisters an action.
func (s *Server) Remove(action string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.handlers, action)
}

// Actions lists registered action names.
func (s *Server) Actions() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.handlers))
	for a := range s.handlers {
		out = append(out, a)
	}
	return out
}

func (s *Server) lookup(action string) (Handler, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h, ok := s.handlers[action]
	return h, ok
}

// ServeHTTP implements the SOAP HTTP binding: POST with text/xml body.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "soap endpoint requires POST", http.StatusMethodNotAllowed)
		return
	}
	bodyBuf := AcquireBuffer()
	defer ReleaseBuffer(bodyBuf)
	body, err := AppendReadAll(*bodyBuf, r.Body, r.ContentLength)
	*bodyBuf = body[:0]
	if err != nil {
		s.writeFault(w, &Fault{Code: "Client", String: "unreadable request body"})
		return
	}
	srvRecvBytes.Add(uint64(len(body)))
	// Decoded calls never alias the request buffer, so it can be pooled
	// as soon as DecodeCall returns.
	call, err := s.Codec.DecodeCall(body)
	if err != nil {
		s.writeFault(w, &Fault{Code: "Client", String: err.Error()})
		return
	}
	if name, ok := s.checkMustUnderstand(call); !ok {
		s.writeFault(w, &Fault{Code: "MustUnderstand",
			String: fmt.Sprintf("header %q not understood", name)})
		return
	}
	action := strings.Trim(r.Header.Get("SOAPAction"), `"`)
	if action == "" {
		action = call.Method
	}
	h, ok := s.lookup(action)
	if !ok {
		s.writeFault(w, &Fault{Code: "Client", String: fmt.Sprintf("no such action %q", action)})
		return
	}
	out, err := h(call)
	if err != nil {
		if f, ok := err.(*Fault); ok {
			s.writeFault(w, f)
		} else {
			s.writeFault(w, &Fault{Code: "Server", String: err.Error()})
		}
		return
	}
	respBuf := AcquireBuffer()
	defer ReleaseBuffer(respBuf)
	resp, err := s.Codec.AppendResponse(*respBuf, call.Method, out)
	if err != nil {
		s.writeFault(w, &Fault{Code: "Server", String: err.Error()})
		return
	}
	*respBuf = resp[:0]
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(resp)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(resp)
	srvSentBytes.Add(uint64(len(resp)))
}

func (s *Server) writeFault(w http.ResponseWriter, f *Fault) {
	buf := AcquireBuffer()
	defer ReleaseBuffer(buf)
	data := s.Codec.AppendFault(*buf, f)
	*buf = data[:0]
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	// SOAP 1.1 over HTTP reports faults with a 500 status.
	w.WriteHeader(http.StatusInternalServerError)
	_, _ = w.Write(data)
	srvSentBytes.Add(uint64(len(data)))
}

// Client invokes SOAP endpoints over HTTP.
type Client struct {
	Codec Codec
	// HTTP is the underlying client; nil uses SharedHTTP.
	HTTP *http.Client
}

// Transport is the tuned shared http.Transport for all HARNESS SOAP and
// HTTP-GET traffic. Connection keep-alive matters here: kernel RPC is
// many small calls to a handful of peer DVMs, so the default transport's
// two idle conns per host serializes concurrent callers behind fresh
// TCP (and TLS) handshakes. The pool is sized for a DVM-wide fan-out.
var Transport = &http.Transport{
	Proxy: http.ProxyFromEnvironment,
	DialContext: (&net.Dialer{
		Timeout:   10 * time.Second,
		KeepAlive: 30 * time.Second,
	}).DialContext,
	MaxIdleConns:          512,
	MaxIdleConnsPerHost:   128,
	IdleConnTimeout:       90 * time.Second,
	TLSHandshakeTimeout:   10 * time.Second,
	ExpectContinueTimeout: time.Second,
	ForceAttemptHTTP2:     true,
}

// SharedHTTP is the default client used by every HARNESS HTTP binding
// (SOAP RPC, HTTP-GET binding, registry client) so that they share one
// keep-alive connection pool.
var SharedHTTP = &http.Client{Transport: Transport, Timeout: 30 * time.Second}

// Wire-volume counters, split by side of the connection.
var (
	cliSentBytes, cliRecvBytes *telemetry.Counter
	srvSentBytes, srvRecvBytes *telemetry.Counter
)

func init() {
	r := telemetry.Default()
	r.Help("harness_soap_wire_bytes_total", "SOAP envelope bytes moved over HTTP")
	cliSentBytes = r.Counter("harness_soap_wire_bytes_total", "side", "client", "dir", "sent")
	cliRecvBytes = r.Counter("harness_soap_wire_bytes_total", "side", "client", "dir", "recv")
	srvSentBytes = r.Counter("harness_soap_wire_bytes_total", "side", "server", "dir", "sent")
	srvRecvBytes = r.Counter("harness_soap_wire_bytes_total", "side", "server", "dir", "recv")
}

// AppendReadAll reads r to EOF, appending into dst (reset to length 0 by
// the caller); sizeHint, when positive, pre-grows dst so that a body with
// an accurate Content-Length reads in one allocation-free pass.
func AppendReadAll(dst []byte, r io.Reader, sizeHint int64) ([]byte, error) {
	if sizeHint > 0 && int64(cap(dst)) < sizeHint+1 && sizeHint < 1<<30 {
		grown := make([]byte, 0, sizeHint+1)
		dst = append(grown, dst...)
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// hostname is this machine's name, asked for once.
var hostname = sync.OnceValue(func() string {
	hn, _ := os.Hostname()
	return hn
})

// SameHost reports whether host names this machine on the face of it —
// "localhost", a literal loopback address, or the machine's own hostname —
// without asking DNS. It is the one locality test of the stack: a peer it
// accepts has no link to save time on, so the SOAP client asks it for no
// gzip, an auto-mode XDR client offers it no codec, and only it can be
// reached over the shm rung.
func SameHost(host string) bool {
	if host == "localhost" {
		return true
	}
	if ip, err := netip.ParseAddr(host); err == nil {
		return ip.IsLoopback()
	}
	return host != "" && host == hostname()
}

// CallRemote posts call to the endpoint URL and decodes the response.
// The request is bound to ctx: a caller's deadline or cancellation ends
// it mid-call. A SOAP fault is returned as a *Fault error.
func (c *Client) CallRemote(ctx context.Context, endpoint string, call *Call) ([]Param, error) {
	reqBuf := AcquireBuffer()
	defer ReleaseBuffer(reqBuf)
	data, err := c.Codec.AppendCall(*reqBuf, call)
	if err != nil {
		return nil, err
	}
	*reqBuf = data[:0]
	httpc := c.HTTP
	if httpc == nil {
		httpc = SharedHTTP
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, endpoint, bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("soap: %w", err)
	}
	req.Header.Set("Content-Type", "text/xml; charset=utf-8")
	req.Header.Set("SOAPAction", `"`+call.Method+`"`)
	// Compression buys link time, and a same-host peer has no link (the
	// HTTP-plane twin of the binding ladder's same-host rung): ask for gzip
	// only off-host. The header is always sent, because without one
	// net/http asks for gzip itself and inflates transparently, building a
	// fresh 32 KiB window per reply; appendGunzip inflates through a pool.
	if SameHost(req.URL.Hostname()) {
		req.Header.Set("Accept-Encoding", "identity")
	} else {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	httpResp, err := httpc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("soap: post %s: %w", endpoint, err)
	}
	defer httpResp.Body.Close()
	cliSentBytes.Add(uint64(len(data)))
	respBuf := AcquireBuffer()
	defer ReleaseBuffer(respBuf)
	var respBody []byte
	if httpResp.Header.Get("Content-Encoding") == "gzip" {
		respBody, err = appendGunzip(*respBuf, httpResp.Body)
	} else {
		respBody, err = AppendReadAll(*respBuf, httpResp.Body, httpResp.ContentLength)
	}
	*respBuf = respBody[:0]
	if err != nil {
		return nil, fmt.Errorf("soap: read response: %w", err)
	}
	cliRecvBytes.Add(uint64(len(respBody)))
	// Decoded responses never alias respBody, so the deferred release is safe.
	resp, err := c.Codec.DecodeResponse(respBody)
	if err != nil {
		return nil, fmt.Errorf("soap: decode response (HTTP %d): %w", httpResp.StatusCode, err)
	}
	if resp.Fault != nil {
		return nil, resp.Fault
	}
	return resp.Params, nil
}
