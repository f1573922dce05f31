package transport

import (
	"errors"
	"math/rand"
	"sync"
	"time"
)

// RetryPolicy configures retrying of failed RPCs: exponential backoff
// with jitter, an attempt cap, and a wall-clock budget. The zero value
// means "no retries" (a single attempt).
//
// Retrying is only safe when redelivery is harmless. The clearing hop
// between banks (accounting.Server.SetHopRetry) is built for that: the
// accept-once restriction suppresses a duplicate check deposit, and the
// duplicate's refusal on the second delivery is taken as the lost
// acknowledgment of the first.
type RetryPolicy struct {
	// MaxAttempts caps total attempts (first try included). Values
	// below 2 mean a single attempt.
	MaxAttempts int
	// BaseDelay is the first backoff (default 10ms); each subsequent
	// backoff multiplies by Multiplier (default 2) up to MaxDelay
	// (default 1s).
	BaseDelay  time.Duration
	MaxDelay   time.Duration
	Multiplier float64
	// Jitter randomizes each backoff by ±Jitter fraction (default 0.2;
	// negative disables).
	Jitter float64
	// Budget bounds the wall-clock spent across all attempts and
	// backoffs; once exceeded no further attempt is made. Zero means
	// attempts alone bound the call.
	Budget time.Duration
	// Seed drives the jitter PRNG; 0 uses the global math/rand source.
	// Fixing it (with a Sleep stub) makes retry schedules reproducible.
	Seed int64
	// Sleep replaces time.Sleep between attempts (tests).
	Sleep func(time.Duration)
	// Retryable classifies errors; nil uses IsRetryable.
	Retryable func(error) bool
}

// Do runs fn (passing the 0-based attempt index) until it succeeds,
// returns a non-retryable error, or the policy is exhausted. method
// labels the retry metrics.
func (p RetryPolicy) Do(method string, fn func(attempt int) error) error {
	attempts := p.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	base := p.BaseDelay
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	maxDelay := p.MaxDelay
	if maxDelay <= 0 {
		maxDelay = time.Second
	}
	mult := p.Multiplier
	if mult < 1 {
		mult = 2
	}
	jitter := p.Jitter
	if jitter == 0 {
		jitter = 0.2
	}
	sleep := p.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	retryable := p.Retryable
	if retryable == nil {
		retryable = IsRetryable
	}
	var rng *rand.Rand
	if p.Seed != 0 {
		rng = rand.New(rand.NewSource(p.Seed))
	}
	var deadline time.Time
	if p.Budget > 0 {
		deadline = time.Now().Add(p.Budget)
	}

	delay := base
	var err error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			mRetries.With(method).Inc()
		}
		err = fn(attempt)
		if err == nil || !retryable(err) {
			return err
		}
		if attempt+1 >= attempts {
			mRetryExhausted.With(method).Inc()
			return err
		}
		d := delay
		if jitter > 0 {
			f := randFloat(rng)
			d = time.Duration(float64(d) * (1 + jitter*(2*f-1)))
		}
		if !deadline.IsZero() && time.Now().Add(d).After(deadline) {
			mRetryExhausted.With(method).Inc()
			return err
		}
		sleep(d)
		delay = time.Duration(float64(delay) * mult)
		if delay > maxDelay {
			delay = maxDelay
		}
	}
}

// globalRandMu serializes global math/rand access for the Seed==0 path
// (rand.Float64 is already safe, but keeping the helper uniform).
var globalRandMu sync.Mutex

func randFloat(rng *rand.Rand) float64 {
	if rng != nil {
		return rng.Float64()
	}
	globalRandMu.Lock()
	defer globalRandMu.Unlock()
	return rand.Float64()
}

// IsRetryable reports whether err looks like a transient transport
// failure: timeouts (including injected drops), closed or partitioned
// connections, and dial failures. Application-level errors — anything
// a handler returned, carried as *RemoteError — are not retried: the
// remote heard the request and answered.
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	var re *RemoteError
	return !errors.As(err, &re)
}
