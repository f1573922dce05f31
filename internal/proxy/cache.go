package proxy

import (
	"container/list"
	"encoding/hex"
	"sync"
	"time"

	"proxykit/internal/kcrypto"
	"proxykit/internal/principal"
	"proxykit/internal/wire"
)

// ChainCache memoizes successful VerifyChain outcomes keyed by the
// digest of the presented certificate chain (and the verifying server's
// identity, which the Bearer determination depends on). The paper's
// §3.4 argument — proxy chains "can be verified without contacting the
// authentication server" because every link is offline-checkable — is
// exactly what makes verification cacheable: the signatures over a
// byte-identical chain cannot change, so re-verifying them per request
// buys nothing. What CAN change per request is everything the cache
// does not short-circuit: validity windows are rechecked on every hit
// (revocation-by-expiry, §3.1, is unchanged), and proof-of-possession,
// replay registration, and ACL evaluation all happen downstream of
// VerifyChain regardless.
//
// Only pure public-key chains are cached: a conventional (HMAC) link or
// binding is verified against mutable resolver/session-key state, so
// its outcome is not a function of the chain bytes alone.
//
// Entries are evicted when an access finds their chain expiry passed,
// and by LRU order at capacity. A ChainCache is safe for concurrent use
// and may be shared by several VerifyEnvs.
type ChainCache struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	ll      *list.List // front = most recently used
	cap     int
}

// DefaultChainCacheSize bounds a ChainCache when no capacity is given.
const DefaultChainCacheSize = 1024

type cacheEntry struct {
	key     string
	v       Verified // value copy; shared read-only innards
	expires time.Time
}

// NewChainCache returns a cache holding at most capacity verified
// chains; capacity <= 0 selects DefaultChainCacheSize.
func NewChainCache(capacity int) *ChainCache {
	if capacity <= 0 {
		capacity = DefaultChainCacheSize
	}
	return &ChainCache{
		entries: make(map[string]*list.Element),
		ll:      list.New(),
		cap:     capacity,
	}
}

// chainCacheable reports whether a chain's verification outcome is a
// pure function of its bytes: every signature and every binding must be
// public-key. HMAC links depend on session keys and unsealers outside
// the chain.
func chainCacheable(certs []*Certificate) bool {
	for _, c := range certs {
		if c.SigScheme != kcrypto.SchemeEd25519 || c.Binding.Scheme != kcrypto.SchemeEd25519 {
			return false
		}
	}
	return true
}

// chainCacheKey digests the verifying server's identity and the full
// marshaled chain. Two servers sharing one cache cannot collide (Bearer
// semantics differ per server), and any altered byte in any certificate
// produces a different key.
func chainCacheKey(server principal.ID, certs []*Certificate) string {
	e := wire.NewEncoder(256 * len(certs))
	e.String("proxykit-chain-cache-v1")
	server.Encode(e)
	e.Uint32(uint32(len(certs)))
	for _, c := range certs {
		e.Bytes32(c.Marshal())
	}
	return hex.EncodeToString(kcrypto.Digest(e.Bytes()))
}

// get returns the cached verification outcome for key, refreshing its
// LRU position. An entry whose chain expiry has passed is evicted and
// reported as a miss (the caller's full verification then produces the
// precise per-certificate expiry error).
func (cc *ChainCache) get(key string, now time.Time) (Verified, bool) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	el, ok := cc.entries[key]
	if !ok {
		mCacheMisses.Inc()
		return Verified{}, false
	}
	ent := el.Value.(*cacheEntry)
	if !now.Before(ent.expires) {
		cc.removeLocked(el, "expired")
		mCacheMisses.Inc()
		return Verified{}, false
	}
	cc.ll.MoveToFront(el)
	mCacheHits.Inc()
	return ent.v, true
}

// put stores a successful verification outcome, evicting the LRU entry
// at capacity. Already-expired outcomes are not stored.
func (cc *ChainCache) put(key string, v *Verified, now time.Time) {
	if !now.Before(v.Expires) {
		return
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if el, ok := cc.entries[key]; ok {
		el.Value.(*cacheEntry).v = *v
		el.Value.(*cacheEntry).expires = v.Expires
		cc.ll.MoveToFront(el)
		return
	}
	for cc.ll.Len() >= cc.cap {
		cc.removeLocked(cc.ll.Back(), "capacity")
	}
	ent := &cacheEntry{key: key, v: *v, expires: v.Expires}
	ent.v.Cached = true // stored form is what hits return
	cc.entries[key] = cc.ll.PushFront(ent)
	mCacheEntries.Set(int64(cc.ll.Len()))
}

// remove drops one entry (used when a hit's validity recheck fails).
func (cc *ChainCache) remove(key, reason string) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if el, ok := cc.entries[key]; ok {
		cc.removeLocked(el, reason)
	}
}

func (cc *ChainCache) removeLocked(el *list.Element, reason string) {
	ent := el.Value.(*cacheEntry)
	cc.ll.Remove(el)
	delete(cc.entries, ent.key)
	mCacheEvictions.With(reason).Inc()
	mCacheEntries.Set(int64(cc.ll.Len()))
}

// Len reports the number of cached chains.
func (cc *ChainCache) Len() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.ll.Len()
}
