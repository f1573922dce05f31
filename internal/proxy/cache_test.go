package proxy

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"proxykit/internal/kcrypto"
	"proxykit/internal/principal"
	"proxykit/internal/restrict"
)

// countingEnv wraps a world's env with a resolver call counter and a
// fresh cache, so tests can observe whether a verification did real
// signature work (cold verifies resolve the grantor; hits resolve
// nothing).
func countingEnv(w *testWorld, cacheSize int) (*VerifyEnv, *atomic.Int64) {
	var resolves atomic.Int64
	inner := w.env.ResolveIdentity
	env := *w.env
	env.ResolveIdentity = func(id principal.ID) (kcrypto.Verifier, error) {
		resolves.Add(1)
		return inner(id)
	}
	env.Cache = NewChainCache(cacheSize)
	return &env, &resolves
}

func TestChainCacheHitSkipsReVerification(t *testing.T) {
	w := newWorld(t)
	p := w.grantPK(alice, readMotd())
	env, resolves := countingEnv(w, 0)

	v1, err := env.VerifyChain(p.Certs)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Cached {
		t.Fatal("first verification reported Cached")
	}
	cold := resolves.Load()
	if cold == 0 {
		t.Fatal("cold verification resolved no identities")
	}

	v2, err := env.VerifyChain(p.Certs)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Cached {
		t.Fatal("second verification of identical chain not served from cache")
	}
	if got := resolves.Load(); got != cold {
		t.Fatalf("warm verification resolved identities (%d -> %d)", cold, got)
	}
	// The cached outcome must be indistinguishable from the cold one.
	if v2.Grantor != v1.Grantor || v2.Bearer != v1.Bearer ||
		v2.ChainLen != v1.ChainLen || !v2.Expires.Equal(v1.Expires) ||
		v2.GrantorKeyID != v1.GrantorKeyID {
		t.Fatalf("cached verified = %+v, cold = %+v", v2, v1)
	}
	if env.Cache.Len() != 1 {
		t.Fatalf("cache len = %d", env.Cache.Len())
	}
}

// TestChainCachePossessionStillChecked: a warm hit must not weaken
// proof-of-possession — presenting a cached bearer chain with a proof
// over the wrong challenge still fails.
func TestChainCachePossessionStillChecked(t *testing.T) {
	w := newWorld(t)
	p := w.grantPK(alice, readMotd())
	env, _ := countingEnv(w, 0)

	ch, _ := NewChallenge()
	pr, err := p.Present(ch, fileSv)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.VerifyPresentation(pr, ch); err != nil {
		t.Fatal(err)
	}
	// Warm: same chain, stale proof against a fresh challenge.
	ch2, _ := NewChallenge()
	if _, err := env.VerifyPresentation(pr, ch2); !errors.Is(err, ErrBadProof) {
		t.Fatalf("stale proof on warm chain: err = %v, want ErrBadProof", err)
	}
	// A correct proof over the new challenge passes, still cached.
	pr2, err := p.Present(ch2, fileSv)
	if err != nil {
		t.Fatal(err)
	}
	v, err := env.VerifyPresentation(pr2, ch2)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Cached {
		t.Fatal("repeat presentation not served from cache")
	}
}

func TestChainCacheExpiredRejectedOnWarmHit(t *testing.T) {
	w := newWorld(t)
	p := w.grantPK(alice, readMotd()) // 1h lifetime
	env, _ := countingEnv(w, 0)

	if _, err := env.VerifyChain(p.Certs); err != nil {
		t.Fatal(err)
	}
	if env.Cache.Len() != 1 {
		t.Fatalf("cache len = %d", env.Cache.Len())
	}

	// Past expiry the warm entry must NOT shortcut the rejection:
	// revocation-by-expiry (§3.1) is checked per request.
	w.clk.Advance(2 * time.Hour)
	if _, err := env.VerifyChain(p.Certs); !errors.Is(err, ErrExpired) {
		t.Fatalf("expired chain on warm cache: err = %v, want ErrExpired", err)
	}
	if env.Cache.Len() != 0 {
		t.Fatalf("expired entry not evicted; cache len = %d", env.Cache.Len())
	}
}

func TestChainCacheConventionalChainsBypass(t *testing.T) {
	w := newWorld(t)
	p := w.grantConv(alice, readMotd())
	env, resolves := countingEnv(w, 0)

	for i := 0; i < 2; i++ {
		v, err := env.VerifyChain(p.Certs)
		if err != nil {
			t.Fatal(err)
		}
		if v.Cached {
			t.Fatal("conventional (HMAC-bound) chain served from cache")
		}
	}
	if env.Cache.Len() != 0 {
		t.Fatalf("conventional chain stored; cache len = %d", env.Cache.Len())
	}
	if resolves.Load() < 2 {
		t.Fatal("conventional chain skipped re-verification")
	}
}

func TestChainCacheKeyIncludesServer(t *testing.T) {
	w := newWorld(t)
	// Grantee nested under a Limit scoped to fileSv: bearer semantics
	// differ between fileSv (grantee applies → not bearer) and mailSv
	// (no grantee → bearer), so a shared cache must not cross-serve.
	rs := restrict.Set{restrict.Limit{
		Servers:      []principal.ID{fileSv},
		Restrictions: restrict.Set{restrict.Grantee{Principals: []principal.ID{bob}}},
	}}
	p := w.grantPK(alice, rs)

	shared := NewChainCache(0)
	envFile := *w.env
	envFile.Cache = shared
	envMail := *w.env
	envMail.Server = mailSv
	envMail.Cache = shared

	vf, err := envFile.VerifyChain(p.Certs)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := envMail.VerifyChain(p.Certs)
	if err != nil {
		t.Fatal(err)
	}
	if vm.Cached {
		t.Fatal("mailSv served fileSv's cache entry — server identity missing from key")
	}
	if vf.Bearer == vm.Bearer {
		t.Fatalf("bearer(fileSv)=%v bearer(mailSv)=%v, want different", vf.Bearer, vm.Bearer)
	}
	if shared.Len() != 2 {
		t.Fatalf("shared cache len = %d, want 2", shared.Len())
	}
}

func TestChainCacheCapacityLRU(t *testing.T) {
	w := newWorld(t)
	env, _ := countingEnv(w, 2)

	chains := []*Proxy{
		w.grantPK(alice, readMotd()),
		w.grantPK(bob, readMotd()),
		w.grantPK(spool, readMotd()),
	}
	for _, p := range chains[:2] {
		if _, err := env.VerifyChain(p.Certs); err != nil {
			t.Fatal(err)
		}
	}
	// Touch the first so the second becomes LRU.
	if v, err := env.VerifyChain(chains[0].Certs); err != nil || !v.Cached {
		t.Fatalf("touch: %v cached=%v", err, v != nil && v.Cached)
	}
	if _, err := env.VerifyChain(chains[2].Certs); err != nil {
		t.Fatal(err)
	}
	if env.Cache.Len() != 2 {
		t.Fatalf("cache len = %d, want 2", env.Cache.Len())
	}
	// chains[0] survived (recently used), chains[1] was evicted.
	if v, err := env.VerifyChain(chains[0].Certs); err != nil || !v.Cached {
		t.Fatalf("recently-used entry evicted: %v", err)
	}
	if v, err := env.VerifyChain(chains[1].Certs); err != nil || v.Cached {
		t.Fatalf("LRU entry not evicted (err=%v)", err)
	}
}
