package proxy

import "proxykit/internal/obs"

// Verified-chain cache metrics. Hits avoid the per-link signature
// verifications (the dominant Authorize cost for long cascades);
// a high eviction rate with reason "capacity" means the cache is
// undersized for the live chain population.
var (
	mCacheHits = obs.Default.NewCounter("proxykit_chain_cache_hits_total",
		"Chain verifications served from the verified-chain cache (signatures skipped; validity windows still rechecked).")
	mCacheMisses = obs.Default.NewCounter("proxykit_chain_cache_misses_total",
		"Chain-cache lookups that fell through to full signature verification.")
	mCacheUncacheable = obs.Default.NewCounter("proxykit_chain_cache_uncacheable_total",
		"Chain verifications bypassing the cache because a link or binding uses a conventional (HMAC) key.")
	mCacheEvictions = obs.Default.NewCounterVec("proxykit_chain_cache_evictions_total",
		"Chain-cache entries evicted, by reason (expired, capacity).", "reason")
	mCacheEntries = obs.Default.NewGauge("proxykit_chain_cache_entries",
		"Verified chains currently held in the chain cache.")
)
