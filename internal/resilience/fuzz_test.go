package resilience

import (
	"math/rand"
	"testing"
	"time"
)

// FuzzPolicyOptions asserts the option-validator contract: New never
// panics on arbitrary numeric option inputs, and any policy it builds has
// internally consistent knobs. It also drives FullJitter directly with
// the raw (base, max, n), accepted or not: the draw stays in [0, max].
func FuzzPolicyOptions(f *testing.F) {
	f.Add(3, int64(1), int64(250), int64(0), int64(0), 2, int64(1000), 3, int64(0), 4)
	f.Add(0, int64(-1), int64(-1), int64(-1), int64(-1), 0, int64(-1), 0, int64(-5), -1)
	f.Add(101, int64(1<<40), int64(1), int64(1<<50), int64(1<<62), 100, int64(1), 1, int64(1), 63)
	f.Fuzz(func(t *testing.T, attempts int, base, max, attemptTO, budget int64,
		hedgeMax int, hedgeDelay int64, brkThreshold int, brkCooldown int64, n int) {
		if max >= 0 {
			rng := rand.New(rand.NewSource(1))
			if d := FullJitter(rng, time.Duration(base), time.Duration(max), n); d < 0 || d > time.Duration(max) {
				t.Fatalf("FullJitter(%d, %d, %d) = %d outside [0,%d]", base, max, n, d, max)
			}
		}
		p, err := New(
			WithMaxAttempts(attempts),
			WithBackoff(time.Duration(base), time.Duration(max)),
			WithAttemptTimeout(time.Duration(attemptTO)),
			WithBudget(time.Duration(budget)),
			WithHedging(time.Duration(hedgeDelay), hedgeMax),
			WithBreaker(brkThreshold, time.Duration(brkCooldown)),
			WithSeed(1),
		) // must not panic
		if err != nil {
			return // invalid inputs rejected: the contract holds
		}
		// Anything accepted must satisfy the documented invariants.
		if p.maxAttempts < 1 || p.maxAttempts > 100 {
			t.Fatalf("accepted maxAttempts %d out of [1,100]", p.maxAttempts)
		}
		if p.backoffBase <= 0 || p.backoffMax < p.backoffBase {
			t.Fatalf("accepted backoff base=%v max=%v", p.backoffBase, p.backoffMax)
		}
		if p.attemptTimeout < 0 || p.budget <= 0 {
			t.Fatalf("accepted attemptTimeout=%v budget=%v", p.attemptTimeout, p.budget)
		}
		if p.hedgeMax < 2 || p.hedgeDelay < 0 {
			t.Fatalf("accepted hedgeMax=%d hedgeDelay=%v", p.hedgeMax, p.hedgeDelay)
		}
		if p.brkThreshold < 1 || p.brkCooldown <= 0 {
			t.Fatalf("accepted breaker threshold=%d cooldown=%v", p.brkThreshold, p.brkCooldown)
		}
		// The backoff envelope must stay within bounds for any attempt.
		for _, attempt := range []int{0, 1, 7, 63, 99} {
			if d := p.backoff(attempt); d < 0 || d > p.backoffMax {
				t.Fatalf("backoff(%d) = %v outside [0,%v]", attempt, d, p.backoffMax)
			}
		}
	})
}
