// Package resilience is the HARNESS II fault-handling plane (S28): a
// zero-dependency policy layer that makes every remote path of the stack
// survive the failures the paper's grid substrate takes for granted.
//
// Harness's raison d'être is *robust* reconfigurable DVMs: "the grid is
// assumed to be unreliable", containers host volatile components, and the
// deployment frameworks in the related literature (Dearle et al.,
// JClarens) both argue that dynamically deployed web-service components
// need policy-driven failure handling at the invocation layer, not in
// application code. This package supplies that layer:
//
//   - Policy — composable client-side execution policy: bounded retries
//     classified by error kind and operation idempotency, exponential
//     backoff with full jitter, per-endpoint circuit breakers with
//     half-open probes, hedged requests across equivalent endpoints
//     (the local > XDR > SOAP selection order doubles as a failover
//     ladder), and deadline/budget propagation through the context.
//   - Limiter — server-side admission control: a concurrency limit plus
//     a bounded wait queue, shedding excess load with the distinguished
//     Overloaded fault that clients treat as retryable-elsewhere.
//   - chaos (subpackage) — a deterministic fault injector hooked into
//     the invoke transports and simnet, so every policy above is
//     provable under injected faults (experiment E13).
//
// Everything follows the telemetry plane's nil-safety idiom: a nil
// *Policy, *Breaker or *Limiter is a valid no-op whose hot-path cost is
// one branch and zero allocations (gated by BenchmarkE13_Disabled).
package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"syscall"
)

// OverloadedToken is the sentinel carried inside Overloaded fault
// messages. Faults cross the SOAP/XDR/HTTP wire as strings, so the token
// — rather than a Go error identity — is what lets a client recognise a
// remote shed and fail over to an equivalent endpoint.
const OverloadedToken = "harness2:overloaded"

// ErrOverloaded is the distinguished admission-control fault: the server
// shed the request *before* executing it, so retrying — preferably
// elsewhere — is always safe, idempotent or not.
var ErrOverloaded = errors.New(OverloadedToken + ": request shed by admission control")

// ErrBreakerOpen reports that the target endpoint's circuit breaker is
// open: the request was not sent. Like Overloaded it is always safe to
// retry against a different endpoint.
var ErrBreakerOpen = errors.New("resilience: circuit breaker open")

// ErrBudgetExhausted reports that the policy's time budget (or the
// caller's deadline) ran out between attempts.
var ErrBudgetExhausted = errors.New("resilience: retry budget exhausted")

// ErrorKind classifies a failure for the retry decision.
type ErrorKind int

const (
	// KindUnknown covers unclassifiable failures, including application
	// faults: the request may have executed, so blind retries are unsafe.
	KindUnknown ErrorKind = iota
	// KindTransient covers connection-level failures — refused, reset,
	// timed out, dropped. The request *may* have reached the server
	// unless the error is additionally marked Unsent.
	KindTransient
	// KindOverloaded is the admission-control shed: provably not
	// executed, retryable anywhere.
	KindOverloaded
	// KindBreakerOpen means the local breaker refused to send: provably
	// not executed, retryable elsewhere.
	KindBreakerOpen
	// KindCanceled is the caller's own context cancellation or deadline;
	// never retried.
	KindCanceled
	// KindPermanent is an explicitly non-retryable failure.
	KindPermanent
)

// String implements fmt.Stringer for experiment output.
func (k ErrorKind) String() string {
	switch k {
	case KindTransient:
		return "transient"
	case KindOverloaded:
		return "overloaded"
	case KindBreakerOpen:
		return "breaker-open"
	case KindCanceled:
		return "canceled"
	case KindPermanent:
		return "permanent"
	}
	return "unknown"
}

// marked wraps an error with an explicit classification.
type marked struct {
	err    error
	kind   ErrorKind
	unsent bool
}

func (m *marked) Error() string { return m.err.Error() }
func (m *marked) Unwrap() error { return m.err }

// MarkTransient tags err as a transient failure (retryable when the
// operation is idempotent, or when additionally marked Unsent).
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &marked{err: err, kind: KindTransient}
}

// MarkPermanent tags err as never retryable.
func MarkPermanent(err error) error {
	if err == nil {
		return nil
	}
	return &marked{err: err, kind: KindPermanent}
}

// MarkUnsent tags err as a transient failure for a request that provably
// never reached the server — retryable even for non-idempotent
// operations. The XDR client's "zero bytes hit the wire" path and the
// chaos injector's pre-invoke faults use it.
func MarkUnsent(err error) error {
	if err == nil {
		return nil
	}
	return &marked{err: err, kind: KindTransient, unsent: true}
}

// IsUnsent reports whether err is marked as provably-not-sent.
func IsUnsent(err error) bool {
	var m *marked
	return errors.As(err, &m) && m.unsent
}

// Classify maps an error to its retry classification. Explicit marks win;
// otherwise the connection-level taxonomy of the Go runtime is consulted,
// and finally the wire-crossing string sentinels (faults arrive as
// strings after a SOAP or XDR hop).
func Classify(err error) ErrorKind {
	if err == nil {
		return KindUnknown
	}
	var m *marked
	if errors.As(err, &m) {
		return m.kind
	}
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return KindCanceled
	case errors.Is(err, ErrOverloaded):
		return KindOverloaded
	case errors.Is(err, ErrBreakerOpen):
		return KindBreakerOpen
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, io.ErrClosedPipe), errors.Is(err, net.ErrClosed),
		errors.Is(err, syscall.ECONNREFUSED), errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.EPIPE), errors.Is(err, syscall.ETIMEDOUT):
		return KindTransient
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return KindTransient
	}
	msg := err.Error()
	switch {
	case strings.Contains(msg, OverloadedToken):
		return KindOverloaded
	case strings.Contains(msg, "connection refused"),
		strings.Contains(msg, "connection reset"),
		strings.Contains(msg, "broken pipe"),
		strings.Contains(msg, "use of closed network connection"),
		strings.Contains(msg, "message dropped"): // simnet.ErrDropped after wrapping
		return KindTransient
	}
	return KindUnknown
}

// Retryable reports whether a failed attempt may be re-executed.
// Overloaded sheds and breaker refusals are provably unexecuted, so they
// retry regardless of idempotency; transient failures retry when the
// operation is idempotent or the request is marked Unsent; everything
// else — including application faults — is surfaced to the caller.
func Retryable(err error, idempotent bool) bool {
	switch Classify(err) {
	case KindOverloaded, KindBreakerOpen:
		return true
	case KindTransient:
		return idempotent || IsUnsent(err)
	}
	return false
}

// RetryableElsewhere reports whether the failure argues for moving to a
// different equivalent endpoint rather than re-trying the same one: the
// endpoint shed us, its breaker is open, or it is unreachable.
func RetryableElsewhere(err error) bool {
	switch Classify(err) {
	case KindOverloaded, KindBreakerOpen, KindTransient:
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Deadline / budget propagation.

type budgetKey struct{}

// ContextWithBudget derives a context carrying a retry budget marker and,
// when the budget is tighter than any existing deadline, the corresponding
// deadline. Nested policies observe the marker and do not stack further
// budgets of their own: the outermost caller's allowance governs the
// whole call tree, per the invocation-layer policy argument of the
// deployment-framework papers.
func ContextWithBudget(ctx context.Context, p *Policy) (context.Context, context.CancelFunc) {
	if p == nil || p.budget <= 0 || HasBudget(ctx) {
		return ctx, func() {}
	}
	ctx, cancel := context.WithTimeout(ctx, p.budget)
	return context.WithValue(ctx, budgetKey{}, true), cancel
}

// HasBudget reports whether an enclosing policy already armed a budget.
func HasBudget(ctx context.Context) bool {
	v, _ := ctx.Value(budgetKey{}).(bool)
	return v
}

// errAttempt annotates the terminal attempt error with its count, so
// operators can tell a first-try failure from an exhausted retry loop.
func errAttempt(op string, attempts int, err error) error {
	if attempts <= 1 {
		return err
	}
	return fmt.Errorf("resilience: %s failed after %d attempts: %w", op, attempts, err)
}
