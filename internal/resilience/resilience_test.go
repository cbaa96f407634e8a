package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want ErrorKind
	}{
		{"nil", nil, KindUnknown},
		{"plain", errors.New("boom"), KindUnknown},
		{"marked-transient", MarkTransient(errors.New("x")), KindTransient},
		{"marked-permanent", MarkPermanent(errors.New("x")), KindPermanent},
		{"marked-unsent", MarkUnsent(errors.New("x")), KindTransient},
		{"wrapped-mark", fmt.Errorf("outer: %w", MarkPermanent(errors.New("x"))), KindPermanent},
		{"canceled", context.Canceled, KindCanceled},
		{"deadline", context.DeadlineExceeded, KindCanceled},
		{"overloaded", ErrOverloaded, KindOverloaded},
		{"breaker", ErrBreakerOpen, KindBreakerOpen},
		{"eof", io.EOF, KindTransient},
		{"unexpected-eof", io.ErrUnexpectedEOF, KindTransient},
		{"closed-pipe", io.ErrClosedPipe, KindTransient},
		{"net-closed", net.ErrClosed, KindTransient},
		{"econnrefused", syscall.ECONNREFUSED, KindTransient},
		{"econnreset", fmt.Errorf("dial: %w", syscall.ECONNRESET), KindTransient},
		{"epipe", syscall.EPIPE, KindTransient},
		{"etimedout", syscall.ETIMEDOUT, KindTransient},
		// Wire-crossing string forms: faults stringify over SOAP/XDR hops.
		{"overloaded-string", errors.New("soap fault: " + OverloadedToken + ": shed"), KindOverloaded},
		{"refused-string", errors.New("dial tcp 1.2.3.4:9: connection refused"), KindTransient},
		{"reset-string", errors.New("read: connection reset by peer"), KindTransient},
		{"pipe-string", errors.New("write: broken pipe"), KindTransient},
		{"closed-net-string", errors.New("use of closed network connection"), KindTransient},
		{"simnet-drop-string", errors.New("simnet: message dropped"), KindTransient},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("%s: Classify = %v, want %v", tc.name, got, tc.want)
		}
	}
}

type fakeTimeout struct{ timeout bool }

func (f *fakeTimeout) Error() string   { return "fake net error" }
func (f *fakeTimeout) Timeout() bool   { return f.timeout }
func (f *fakeTimeout) Temporary() bool { return false }

func TestClassifyNetTimeout(t *testing.T) {
	if got := Classify(&fakeTimeout{timeout: true}); got != KindTransient {
		t.Fatalf("net timeout: Classify = %v, want transient", got)
	}
	if got := Classify(&fakeTimeout{timeout: false}); got != KindUnknown {
		t.Fatalf("net non-timeout: Classify = %v, want unknown", got)
	}
}

func TestMarksNilPassThrough(t *testing.T) {
	if MarkTransient(nil) != nil || MarkPermanent(nil) != nil || MarkUnsent(nil) != nil {
		t.Fatal("marks must pass nil through")
	}
}

func TestUnsent(t *testing.T) {
	base := errors.New("conn died")
	if IsUnsent(MarkTransient(base)) {
		t.Fatal("plain transient must not be unsent")
	}
	u := MarkUnsent(base)
	if !IsUnsent(u) {
		t.Fatal("MarkUnsent not detected")
	}
	if !IsUnsent(fmt.Errorf("wrap: %w", u)) {
		t.Fatal("IsUnsent must see through wrapping")
	}
	if !errors.Is(u, base) {
		t.Fatal("marked error must unwrap to its cause")
	}
}

func TestRetryable(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		idempotent bool
		want       bool
	}{
		{"overloaded-nonidem", ErrOverloaded, false, true},
		{"breaker-nonidem", ErrBreakerOpen, false, true},
		{"transient-idem", MarkTransient(errors.New("x")), true, true},
		{"transient-nonidem", MarkTransient(errors.New("x")), false, false},
		{"unsent-nonidem", MarkUnsent(errors.New("x")), false, true},
		{"permanent-idem", MarkPermanent(errors.New("x")), true, false},
		{"canceled-idem", context.Canceled, true, false},
		{"unknown-idem", errors.New("app fault"), true, false},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err, tc.idempotent); got != tc.want {
			t.Errorf("%s: Retryable = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRetryableElsewhere(t *testing.T) {
	for _, err := range []error{ErrOverloaded, ErrBreakerOpen, MarkTransient(errors.New("x"))} {
		if !RetryableElsewhere(err) {
			t.Errorf("%v: want retryable-elsewhere", err)
		}
	}
	for _, err := range []error{MarkPermanent(errors.New("x")), context.Canceled, errors.New("app")} {
		if RetryableElsewhere(err) {
			t.Errorf("%v: want not retryable-elsewhere", err)
		}
	}
}

func TestErrorKindString(t *testing.T) {
	want := map[ErrorKind]string{
		KindUnknown:     "unknown",
		KindTransient:   "transient",
		KindOverloaded:  "overloaded",
		KindBreakerOpen: "breaker-open",
		KindCanceled:    "canceled",
		KindPermanent:   "permanent",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("kind %d: String = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestContextWithBudget(t *testing.T) {
	p := MustNew(WithBudget(time.Minute))
	ctx, cancel := ContextWithBudget(context.Background(), p)
	defer cancel()
	if !HasBudget(ctx) {
		t.Fatal("budget marker missing")
	}
	if _, ok := ctx.Deadline(); !ok {
		t.Fatal("budget deadline missing")
	}
	// Nested policies must not stack a second budget: same ctx comes back.
	ctx2, cancel2 := ContextWithBudget(ctx, p)
	defer cancel2()
	if ctx2 != ctx {
		t.Fatal("nested budget must be a no-op")
	}
	// A policy without a budget never arms one.
	plain := MustNew()
	ctx3, cancel3 := ContextWithBudget(context.Background(), plain)
	defer cancel3()
	if HasBudget(ctx3) {
		t.Fatal("no-budget policy must not arm a budget")
	}
}
