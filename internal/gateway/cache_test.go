package gateway

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"proxykit/internal/clock"
	"proxykit/internal/obs"
	"proxykit/internal/principal"
	"proxykit/internal/proxy"
	"proxykit/internal/pubkey"
)

// grantAt issues a fresh public-key proxy on clk with the given
// lifetime, standing in for a grant round trip to a real service.
func grantAt(t *testing.T, ident *pubkey.Identity, clk clock.Clock, lifetime time.Duration) *proxy.Proxy {
	t.Helper()
	p, err := proxy.Grant(proxy.GrantParams{
		Grantor:       ident.ID,
		GrantorSigner: ident.Signer(),
		Lifetime:      lifetime,
		Mode:          proxy.ModePublicKey,
		Clock:         clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testIdentity(t *testing.T) *pubkey.Identity {
	t.Helper()
	ident, err := pubkey.NewIdentity(principal.New("alice", "TEST.ORG"))
	if err != nil {
		t.Fatal(err)
	}
	return ident
}

// renewWaiter turns the cache's onRenew hook into something a test can
// block on: each background renewal outcome is delivered on a channel.
type renewWaiter struct {
	ch chan error
}

func newRenewWaiter() *renewWaiter { return &renewWaiter{ch: make(chan error, 16)} }

func (w *renewWaiter) hook(key string, err error) { w.ch <- err }

func (w *renewWaiter) wait(t *testing.T) error {
	t.Helper()
	select {
	case err := <-w.ch:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for background renewal")
		return nil
	}
}

// TestCacheRenewsBeforeExpiry drives a cached proxy into the renewal
// window and asserts the hit still serves the old (valid) proxy while a
// background renewal replaces it, so the next hit sees the fresh one
// without ever waiting on a grant.
func TestCacheRenewsBeforeExpiry(t *testing.T) {
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	ident := testIdentity(t)
	w := newRenewWaiter()
	c := NewCache(clk, 2*time.Minute, w.hook)

	var mu sync.Mutex
	acquires := 0
	acquire := func(tr obs.Trace) (*proxy.Proxy, error) {
		mu.Lock()
		acquires++
		mu.Unlock()
		return grantAt(t, ident, clk, 10*time.Minute), nil
	}

	p1, err := c.Get("k", obs.NewTrace(), acquire)
	if err != nil {
		t.Fatal(err)
	}
	firstExpiry := p1.Expires()

	// Still comfortably inside the lifetime: a pure hit, no renewal.
	clk.Advance(5 * time.Minute)
	p2, err := c.Get("k", obs.NewTrace(), acquire)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p1 {
		t.Fatal("mid-lifetime hit did not serve the cached proxy")
	}

	// Inside the renewal window (90s to expiry): the hit must serve the
	// still-valid old proxy and kick off a background renewal.
	clk.Advance(3*time.Minute + 30*time.Second)
	p3, err := c.Get("k", obs.NewTrace(), acquire)
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 {
		t.Fatal("near-expiry hit blocked on renewal instead of serving the cached proxy")
	}
	if err := w.wait(t); err != nil {
		t.Fatalf("renewal failed: %v", err)
	}

	p4, err := c.Get("k", obs.NewTrace(), acquire)
	if err != nil {
		t.Fatal(err)
	}
	if !p4.Expires().After(firstExpiry) {
		t.Fatalf("post-renewal proxy expires %v, want after %v", p4.Expires(), firstExpiry)
	}
	mu.Lock()
	if acquires != 2 {
		t.Fatalf("acquires = %d, want 2 (initial + one background renewal)", acquires)
	}
	mu.Unlock()
}

// TestCacheNeverServesExpired expires a cached proxy in place and
// asserts the next Get evicts it and re-acquires synchronously — the
// stale credential is never returned.
func TestCacheNeverServesExpired(t *testing.T) {
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	ident := testIdentity(t)
	c := NewCache(clk, 2*time.Minute, nil)

	acquires := 0
	acquire := func(tr obs.Trace) (*proxy.Proxy, error) {
		acquires++
		return grantAt(t, ident, clk, 10*time.Minute), nil
	}

	p1, err := c.Get("k", obs.NewTrace(), acquire)
	if err != nil {
		t.Fatal(err)
	}

	// Jump straight past expiry (no intermediate hit ever entered the
	// renewal window, so nothing renewed in the background).
	clk.Advance(11 * time.Minute)
	p2, err := c.Get("k", obs.NewTrace(), acquire)
	if err != nil {
		t.Fatal(err)
	}
	if p2 == p1 {
		t.Fatal("expired proxy was served")
	}
	if !clk.Now().Before(p2.Expires()) {
		t.Fatal("re-acquired proxy is not valid now")
	}
	if acquires != 2 {
		t.Fatalf("acquires = %d, want 2 (miss + expired re-acquire)", acquires)
	}
}

// TestCacheFailedRenewalDegradesCleanly makes renewal fail: the old
// proxy keeps serving until its natural expiry, after which the
// synchronous re-acquire surfaces the upstream failure as a plain error
// (which the HTTP layer maps to 401/403) — never a stale proxy, never a
// hang.
func TestCacheFailedRenewalDegradesCleanly(t *testing.T) {
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	ident := testIdentity(t)
	w := newRenewWaiter()
	c := NewCache(clk, 2*time.Minute, w.hook)

	var mu sync.Mutex
	acquires, failFrom := 0, 2
	acquire := func(tr obs.Trace) (*proxy.Proxy, error) {
		mu.Lock()
		acquires++
		n := acquires
		mu.Unlock()
		if n >= failFrom {
			return nil, fmt.Errorf("authorization revoked")
		}
		return grantAt(t, ident, clk, 10*time.Minute), nil
	}

	p1, err := c.Get("k", obs.NewTrace(), acquire)
	if err != nil {
		t.Fatal(err)
	}

	// Enter the renewal window; the background renewal fails but the
	// still-valid old proxy keeps being served.
	clk.Advance(9 * time.Minute)
	p2, err := c.Get("k", obs.NewTrace(), acquire)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p1 {
		t.Fatal("want the still-valid cached proxy during failed renewal")
	}
	if err := w.wait(t); err == nil {
		t.Fatal("renewal unexpectedly succeeded")
	}
	p3, err := c.Get("k", obs.NewTrace(), acquire)
	if err != nil || p3 != p1 {
		t.Fatalf("Get after failed renewal = (%v, %v), want old proxy", p3, err)
	}

	// Past expiry the failure must surface to the caller; the expired
	// proxy must not.
	clk.Advance(2 * time.Minute)
	if _, err := c.Get("k", obs.NewTrace(), acquire); err == nil {
		t.Fatal("expired entry with failing acquire returned no error")
	}
	if got := len(c.Entries()); got != 0 {
		t.Fatalf("cache holds %d entries after eviction, want 0", got)
	}
}

// TestCacheSweep exercises the background loop's single pass: one entry
// fresh (left alone), one in the renewal window (renewed), one expired
// (evicted).
func TestCacheSweep(t *testing.T) {
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	ident := testIdentity(t)
	w := newRenewWaiter()
	c := NewCache(clk, 2*time.Minute, w.hook)

	mk := func(key string, lifetime time.Duration) {
		if _, err := c.Get(key, obs.NewTrace(), func(tr obs.Trace) (*proxy.Proxy, error) {
			return grantAt(t, ident, clk, lifetime), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	mk("fresh", time.Hour)
	mk("near", 90*time.Second)
	mk("gone", time.Minute)

	clk.Advance(61 * time.Second) // "gone" expired, "near" has 29s left
	c.Sweep()
	if err := w.wait(t); err != nil {
		t.Fatalf("sweep renewal failed: %v", err)
	}

	entries := c.Entries()
	if len(entries) != 2 {
		t.Fatalf("entries after sweep = %v, want fresh+near", entries)
	}
	for _, e := range entries {
		if e.Key == "gone" {
			t.Fatal("expired entry survived the sweep")
		}
		if e.Key == "near" && !e.Expires.After(clk.Now().Add(time.Minute)) {
			t.Fatalf("near entry was not renewed: expires %v", e.Expires)
		}
	}
}

// TestCacheConcurrentAccess hammers one key from many goroutines across
// the renewal window; run under -race this proves the lock discipline
// (mutex never held across acquire, stampede suppression via the
// renewing flag).
func TestCacheConcurrentAccess(t *testing.T) {
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	ident := testIdentity(t)
	c := NewCache(clk, 2*time.Minute, nil)

	acquire := func(tr obs.Trace) (*proxy.Proxy, error) {
		return grantAt(t, ident, clk, 10*time.Minute), nil
	}

	// The shared clock stands still for the length of any one Get
	// (many Gets still overlap each other and the background renewals):
	// otherwise eight goroutines can push it past a fresh grant's
	// lifetime between the grant reading the clock and Get's fail-closed
	// expiry check, and Get rightly refuses the proxy.
	var clkMu sync.RWMutex
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				clkMu.RLock()
				p, err := c.Get("k", obs.NewTrace(), acquire)
				clkMu.RUnlock()
				if err != nil || p == nil {
					t.Errorf("Get = (%v, %v)", p, err)
					return
				}
				if j%10 == 9 {
					clkMu.Lock()
					clk.Advance(time.Minute)
					clkMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
}

// TestCacheRefusesExpiredAcquisition covers the fail-closed side of the
// miss path: an acquisition that comes back already expired (clock skew
// against the grantor, or a grant slower than its own lifetime) must be
// refused, not cached and not returned — the gateway would otherwise
// forward a dead restricted proxy to the end-server.
func TestCacheRefusesExpiredAcquisition(t *testing.T) {
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	ident := testIdentity(t)
	c := NewCache(clk, 2*time.Minute, nil)

	// The grant is issued on a clock 10 minutes behind "now" with a
	// 5-minute lifetime: valid when signed, expired on arrival.
	skewed := clock.NewFake(clk.Now().Add(-10 * time.Minute))
	acquire := func(tr obs.Trace) (*proxy.Proxy, error) {
		return grantAt(t, ident, skewed, 5*time.Minute), nil
	}
	_, err := c.Get("k", obs.NewTrace(), acquire)
	if !errors.Is(err, ErrExpiredProxy) {
		t.Fatalf("Get with expired acquisition = %v, want ErrExpiredProxy", err)
	}
	if got := len(c.Entries()); got != 0 {
		t.Fatalf("expired acquisition was cached: %d entries", got)
	}
	// The refusal maps to 503 at the HTTP edge: fail closed, retryable.
	if code := statusForUpstream(err); code != http.StatusServiceUnavailable {
		t.Fatalf("statusForUpstream(ErrExpiredProxy) = %d, want 503", code)
	}
}

// TestCacheRenewalRefusesExpiredProxy covers the renewal side: a
// background renewal that produces an already-expired proxy must be
// treated as a failed renewal — the still-valid cached proxy keeps
// serving, and the dead one is never installed over it.
func TestCacheRenewalRefusesExpiredProxy(t *testing.T) {
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	ident := testIdentity(t)
	w := newRenewWaiter()
	c := NewCache(clk, 2*time.Minute, w.hook)

	var mu sync.Mutex
	acquires := 0
	skewed := clock.NewFake(clk.Now().Add(-10 * time.Minute))
	acquire := func(tr obs.Trace) (*proxy.Proxy, error) {
		mu.Lock()
		acquires++
		n := acquires
		mu.Unlock()
		if n >= 2 {
			// Renewal round: issued on a skewed clock, dead on arrival.
			return grantAt(t, ident, skewed, 5*time.Minute), nil
		}
		return grantAt(t, ident, clk, 10*time.Minute), nil
	}

	p1, err := c.Get("k", obs.NewTrace(), acquire)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(9 * time.Minute) // inside the renewal window
	p2, err := c.Get("k", obs.NewTrace(), acquire)
	if err != nil || p2 != p1 {
		t.Fatalf("hit inside renewal window = (%v, %v), want cached proxy", p2, err)
	}
	if err := w.wait(t); !errors.Is(err, ErrExpiredProxy) {
		t.Fatalf("renewal outcome = %v, want ErrExpiredProxy", err)
	}
	// The old, still-valid proxy is what the cache serves — not the
	// dead renewal.
	p3, err := c.Get("k", obs.NewTrace(), acquire)
	if err != nil || p3 != p1 {
		t.Fatalf("Get after expired renewal = (%v, %v), want old proxy kept", p3, err)
	}
}
