package resilience

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"harness2/internal/telemetry"
)

// Target is one equivalent way to execute an operation: an endpoint plus
// the attempt function bound to it. Policies receive targets
// cheapest-first — the invoke framework hands them over in its
// local > XDR > SOAP > HTTP selection order, so the binding hierarchy of
// Figure 5 doubles as the failover ladder.
type Target struct {
	// ID identifies the endpoint for circuit-breaker state, e.g.
	// "xdr:127.0.0.1:4004". Targets sharing an ID share a breaker.
	ID string
	// Do runs one attempt. It must honour ctx.
	Do func(ctx context.Context) (any, error)
}

// Option configures New.
type Option func(*Policy) error

// WithMaxAttempts bounds the total number of attempts per Execute
// (initial try included). n must be in [1, 100].
func WithMaxAttempts(n int) Option {
	return func(p *Policy) error {
		if n < 1 || n > 100 {
			return fmt.Errorf("resilience: max attempts %d out of range [1,100]", n)
		}
		p.maxAttempts = n
		return nil
	}
}

// WithBackoff sets the exponential-backoff envelope: the attempt-i sleep
// is drawn uniformly from [0, min(max, base<<i)] — "full jitter", which
// decorrelates retry storms from synchronised clients. base must be
// positive and max >= base.
func WithBackoff(base, max time.Duration) Option {
	return func(p *Policy) error {
		if base <= 0 {
			return fmt.Errorf("resilience: backoff base %v must be positive", base)
		}
		if max < base {
			return fmt.Errorf("resilience: backoff max %v < base %v", max, base)
		}
		p.backoffBase, p.backoffMax = base, max
		return nil
	}
}

// WithAttemptTimeout bounds each individual attempt. Zero disables the
// per-attempt deadline (the overall context still governs).
func WithAttemptTimeout(d time.Duration) Option {
	return func(p *Policy) error {
		if d < 0 {
			return fmt.Errorf("resilience: attempt timeout %v must be >= 0", d)
		}
		p.attemptTimeout = d
		return nil
	}
}

// WithBudget bounds the total wall time Execute may spend across all
// attempts and backoffs, propagated through the context so nested
// policies do not stack their own allowances on top.
func WithBudget(d time.Duration) Option {
	return func(p *Policy) error {
		if d <= 0 {
			return fmt.Errorf("resilience: budget %v must be positive", d)
		}
		p.budget = d
		return nil
	}
}

// WithBreaker enables per-endpoint circuit breakers: threshold
// consecutive failures open the breaker, and after cooldown a single
// half-open probe decides between closing it and re-opening.
func WithBreaker(threshold int, cooldown time.Duration) Option {
	return func(p *Policy) error {
		if threshold < 1 {
			return fmt.Errorf("resilience: breaker threshold %d must be >= 1", threshold)
		}
		if cooldown <= 0 {
			return fmt.Errorf("resilience: breaker cooldown %v must be positive", cooldown)
		}
		p.brkThreshold, p.brkCooldown = threshold, cooldown
		return nil
	}
}

// WithHedging enables hedged requests for idempotent operations: when the
// attempt in flight has produced no result after delay, the next target
// on the ladder is raced against it, up to max concurrent hedges. The
// first result wins; losers are cancelled. delay must be >= 0 (zero means
// race immediately) and max >= 2 (the primary counts).
func WithHedging(delay time.Duration, max int) Option {
	return func(p *Policy) error {
		if delay < 0 {
			return fmt.Errorf("resilience: hedge delay %v must be >= 0", delay)
		}
		if max < 2 {
			return fmt.Errorf("resilience: hedge max %d must be >= 2", max)
		}
		p.hedgeDelay, p.hedgeMax = delay, max
		return nil
	}
}

// WithSeed fixes the jitter RNG for deterministic tests and experiments.
func WithSeed(seed int64) Option {
	return func(p *Policy) error {
		p.rng = rand.New(rand.NewSource(seed))
		return nil
	}
}

// WithTelemetry selects the policy's metrics registry; nil falls back to
// the process default, telemetry.Disabled() switches instrumentation off.
func WithTelemetry(r *telemetry.Registry) Option {
	return func(p *Policy) error {
		p.tel = r
		return nil
	}
}

// WithSleep replaces the inter-attempt sleep; tests inject a virtual
// clock here. The function must return early with ctx.Err() when the
// context ends first.
func WithSleep(fn func(ctx context.Context, d time.Duration) error) Option {
	return func(p *Policy) error {
		if fn == nil {
			return fmt.Errorf("resilience: nil sleep function")
		}
		p.sleep = fn
		return nil
	}
}

// WithClock replaces the breaker clock for deterministic tests.
func WithClock(now func() time.Time) Option {
	return func(p *Policy) error {
		if now == nil {
			return fmt.Errorf("resilience: nil clock")
		}
		p.now = now
		return nil
	}
}

// Policy is a composed, reusable failure-handling policy. One Policy is
// typically shared by all calls to a service (its breaker map is
// per-endpoint); it is safe for concurrent use. The nil *Policy is a
// valid pass-through that executes the first target exactly once.
type Policy struct {
	maxAttempts    int
	backoffBase    time.Duration
	backoffMax     time.Duration
	attemptTimeout time.Duration
	budget         time.Duration
	hedgeDelay     time.Duration
	hedgeMax       int
	brkThreshold   int
	brkCooldown    time.Duration

	tel   *telemetry.Registry
	met   policyMetrics
	sleep func(ctx context.Context, d time.Duration) error
	now   func() time.Time

	mu       sync.Mutex
	rng      *rand.Rand
	breakers map[string]*Breaker
}

// New validates the options and builds a policy. Defaults: 3 attempts,
// 1ms..250ms full-jitter backoff, no per-attempt timeout, no budget, no
// breaker, no hedging.
func New(opts ...Option) (*Policy, error) {
	p := &Policy{
		maxAttempts: 3,
		backoffBase: time.Millisecond,
		backoffMax:  250 * time.Millisecond,
		now:         time.Now,
		breakers:    make(map[string]*Breaker),
	}
	p.sleep = defaultSleep
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("resilience: nil option")
		}
		if err := opt(p); err != nil {
			return nil, err
		}
	}
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	p.met = newPolicyMetrics(telemetry.Or(p.tel))
	return p, nil
}

// MustNew is New for statically-known-good options.
func MustNew(opts ...Option) *Policy {
	p, err := New(opts...)
	if err != nil {
		panic(err)
	}
	return p
}

func defaultSleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// breaker returns (creating on first use) the endpoint's breaker, or nil
// when breakers are not configured.
func (p *Policy) breaker(endpoint string) *Breaker {
	if p == nil || p.brkThreshold == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.breakers[endpoint]
	if b == nil {
		b = NewBreaker(p.brkThreshold, p.brkCooldown)
		b.now = p.now
		met := p.met
		ep := endpoint
		b.onTransition = func(from, to BreakerState) {
			met.breakerTransition(ep, from, to)
		}
		p.breakers[endpoint] = b
	}
	return b
}

// BreakerFor exposes the endpoint's breaker for inspection (nil when
// breakers are disabled or the endpoint has never been used).
func (p *Policy) BreakerFor(endpoint string) *Breaker {
	if p == nil || p.brkThreshold == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.breakers[endpoint]
}

// backoff returns the attempt-i sleep.
func (p *Policy) backoff(attempt int) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return FullJitter(p.rng, p.backoffBase, p.backoffMax, attempt)
}

// FullJitter draws the n-th exponential-backoff sleep uniformly from
// [0, min(max, base·2ⁿ)]: "full jitter". The ceiling is max when the
// shift overflows, and the sleep is 0 when base or max is not positive.
// The caller serialises rng.
func FullJitter(rng *rand.Rand, base, max time.Duration, n int) time.Duration {
	if base <= 0 || max <= 0 {
		return 0
	}
	ceil := max
	if n >= 0 && n < 63 && base <= max>>uint(n) {
		ceil = base << uint(n)
	}
	if ceil == math.MaxInt64 {
		return time.Duration(rng.Int63())
	}
	return time.Duration(rng.Int63n(int64(ceil) + 1))
}

// attemptCtx derives the per-attempt context.
func (p *Policy) attemptCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if p.attemptTimeout > 0 {
		return context.WithTimeout(ctx, p.attemptTimeout)
	}
	return context.WithCancel(ctx)
}

// Execute runs op against the target ladder under the policy: budget and
// deadline propagation, breaker gating, classified retries with
// full-jitter backoff, and — for idempotent operations with more than one
// target — hedging. A nil policy executes targets[0] exactly once, so the
// disabled path costs one branch.
func (p *Policy) Execute(ctx context.Context, op string, idempotent bool, targets ...Target) (any, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("resilience: %s: no targets", op)
	}
	if p == nil {
		return targets[0].Do(ctx)
	}
	ctx, cancel := ContextWithBudget(ctx, p)
	defer cancel()
	if p.hedgeMax >= 2 && idempotent && len(targets) > 1 {
		return p.executeHedged(ctx, op, targets)
	}
	return p.executeSequential(ctx, op, idempotent, targets)
}

// executeSequential is the retry/failover loop without hedging.
func (p *Policy) executeSequential(ctx context.Context, op string, idempotent bool, targets []Target) (any, error) {
	var lastErr error
	ti := 0 // current rung of the failover ladder
	for attempt := 0; attempt < p.maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, budgetErr(op, attempt, err, lastErr)
		}
		// Find a rung whose breaker admits the attempt, starting at the
		// current one and walking down the ladder.
		probed := 0
		for ; probed < len(targets); probed++ {
			if p.breaker(targets[(ti+probed)%len(targets)].ID).Allow() {
				break
			}
		}
		if probed == len(targets) {
			// Every breaker is open: treat like any retryable failure —
			// back off and re-probe, up to the attempt bound.
			lastErr = fmt.Errorf("%w: all %d endpoints for %s", ErrBreakerOpen, len(targets), op)
			p.met.breakerRefusal(op)
			if attempt == p.maxAttempts-1 {
				break
			}
			if err := p.sleep(ctx, p.backoff(attempt)); err != nil {
				return nil, budgetErr(op, attempt+1, err, lastErr)
			}
			continue
		}
		ti = (ti + probed) % len(targets)
		t := targets[ti]
		if attempt > 0 {
			p.met.retry(op)
		}
		out, err := p.runAttempt(ctx, t)
		p.breaker(t.ID).Report(err)
		if err == nil {
			p.met.success(op, attempt)
			return out, nil
		}
		lastErr = err
		p.met.failure(op, Classify(err))
		if !Retryable(err, idempotent) || attempt == p.maxAttempts-1 {
			break
		}
		if RetryableElsewhere(err) && len(targets) > 1 {
			ti = (ti + 1) % len(targets)
		}
		if err := p.sleep(ctx, p.backoff(attempt)); err != nil {
			return nil, budgetErr(op, attempt+1, err, lastErr)
		}
	}
	p.met.exhausted(op)
	return nil, errAttempt(op, p.maxAttempts, lastErr)
}

// runAttempt executes one attempt under the per-attempt deadline.
func (p *Policy) runAttempt(ctx context.Context, t Target) (any, error) {
	actx, cancel := p.attemptCtx(ctx)
	defer cancel()
	out, err := t.Do(actx)
	if err != nil && actx.Err() != nil && ctx.Err() == nil {
		// The per-attempt deadline fired, not the caller's: reclassify as
		// transient so the retry loop engages instead of treating it as
		// the caller's own cancellation.
		err = MarkTransient(fmt.Errorf("resilience: attempt timed out: %w", err))
	}
	return out, err
}

// hedgeResult carries one racer's outcome.
type hedgeResult struct {
	idx int
	out any
	err error
}

// executeHedged races the ladder: the primary target starts immediately;
// each time hedgeDelay passes without a result — or a racer fails with an
// elsewhere-retryable error — the next rung launches. First success wins
// and cancels the rest. The whole race repeats (with backoff) up to the
// attempt bound. Only idempotent operations reach this path, so duplicate
// execution is harmless by contract.
func (p *Policy) executeHedged(ctx context.Context, op string, targets []Target) (any, error) {
	var lastErr error
	for attempt := 0; attempt < p.maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, budgetErr(op, attempt, err, lastErr)
		}
		if attempt > 0 {
			p.met.retry(op)
		}
		out, err := p.hedgeRound(ctx, op, targets)
		if err == nil {
			p.met.success(op, attempt)
			return out, nil
		}
		lastErr = err
		p.met.failure(op, Classify(err))
		if !Retryable(err, true) || attempt == p.maxAttempts-1 {
			break
		}
		if serr := p.sleep(ctx, p.backoff(attempt)); serr != nil {
			return nil, budgetErr(op, attempt+1, serr, lastErr)
		}
	}
	p.met.exhausted(op)
	return nil, errAttempt(op, p.maxAttempts, lastErr)
}

// hedgeRound runs one race across the ladder.
func (p *Policy) hedgeRound(ctx context.Context, op string, targets []Target) (any, error) {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	max := p.hedgeMax
	if max > len(targets) {
		max = len(targets)
	}
	results := make(chan hedgeResult, len(targets))
	launched := 0
	launch := func() bool {
		for launched < len(targets) {
			t := targets[launched]
			idx := launched
			launched++
			if !p.breaker(t.ID).Allow() {
				p.met.breakerRefusal(op)
				continue
			}
			if idx > 0 {
				p.met.hedge(op)
			}
			go func() {
				out, err := p.runAttempt(rctx, t)
				p.breaker(t.ID).Report(err)
				results <- hedgeResult{idx: idx, out: out, err: err}
			}()
			return true
		}
		return false
	}

	inFlight := 0
	if launch() {
		inFlight++
	}
	if inFlight == 0 {
		return nil, fmt.Errorf("%w: all %d endpoints for %s", ErrBreakerOpen, len(targets), op)
	}

	var timer *time.Timer
	var hedgeC <-chan time.Time
	armTimer := func() {
		if inFlight >= max || launched >= len(targets) {
			hedgeC = nil
			return
		}
		if timer == nil {
			timer = time.NewTimer(p.hedgeDelay)
		} else {
			timer.Reset(p.hedgeDelay)
		}
		hedgeC = timer.C
	}
	armTimer()
	if timer != nil {
		defer timer.Stop()
	}

	var lastErr error
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-hedgeC:
			if launch() {
				inFlight++
			}
			armTimer()
		case res := <-results:
			if res.err == nil {
				if res.idx > 0 {
					p.met.hedgeWin(op)
				}
				return res.out, nil
			}
			lastErr = res.err
			inFlight--
			// A failed racer frees a slot; elsewhere-retryable failures
			// launch the next rung immediately rather than waiting out
			// the hedge delay.
			if RetryableElsewhere(res.err) && launch() {
				inFlight++
			}
			if inFlight == 0 {
				return nil, lastErr
			}
			armTimer()
		}
	}
}

// budgetErr folds the budget/deadline error together with the last
// attempt failure so callers see both causes.
func budgetErr(op string, attempts int, ctxErr, lastErr error) error {
	if lastErr == nil {
		return fmt.Errorf("resilience: %s: %w: %w", op, ErrBudgetExhausted, ctxErr)
	}
	return fmt.Errorf("resilience: %s: %w after %d attempts (last: %w)",
		op, ErrBudgetExhausted, attempts, lastErr)
}

// Do is the single-target convenience wrapper around Execute for callers
// without a failover ladder (e.g. the registry client).
func (p *Policy) Do(ctx context.Context, endpoint, op string, idempotent bool,
	fn func(ctx context.Context) (any, error)) (any, error) {
	return p.Execute(ctx, op, idempotent, Target{ID: endpoint, Do: fn})
}
