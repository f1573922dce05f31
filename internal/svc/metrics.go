package svc

import (
	"errors"

	"proxykit/internal/obs"
)

// Envelope metrics: every authenticated request crosses Seal on the
// client and Open on the service, so these two families account for
// the whole signed-envelope path, including replay suppression (§7.7).
var (
	mSeal = obs.Default.NewCounter("proxykit_envelope_seal_total",
		"Request envelopes signed by clients.")
	mOpen = obs.Default.NewCounterVec("proxykit_envelope_open_total",
		"Request envelopes verified by services, by outcome (ok, bad, stale, replayed).", "outcome")
)

// openOutcome classifies an Open error into the metric label.
func openOutcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrReplayed):
		return "replayed"
	case errors.Is(err, ErrStale):
		return "stale"
	default:
		return "bad"
	}
}
