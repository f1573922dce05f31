// Package svc exposes the proxykit services (authorization server,
// group server, accounting server, end-server) over the transport
// layer: request/response codecs, authenticated request envelopes, and
// client wrappers.
//
// Requests that require authentication travel in a signed envelope: the
// client signs the request body and a timestamp with its identity key,
// and the service verifies the signature through the public-key
// directory. This stands in for the "authenticated authorization
// request" arrow of Fig. 3 (in a Kerberos deployment an AP exchange
// would fill the same role).
package svc

import (
	"errors"
	"fmt"
	"time"

	"proxykit/internal/clock"
	"proxykit/internal/kcrypto"
	"proxykit/internal/principal"
	"proxykit/internal/pubkey"
	"proxykit/internal/replay"
	"proxykit/internal/transport"
	"proxykit/internal/wire"
)

// Errors returned by envelope handling.
var (
	ErrBadEnvelope = errors.New("svc: invalid request envelope")
	ErrStale       = errors.New("svc: request timestamp outside window")
	ErrReplayed    = errors.New("svc: request replayed")
)

// envelopeSkew bounds request timestamp staleness.
const envelopeSkew = 2 * time.Minute

// Envelope is a signed request.
type Envelope struct {
	// From is the authenticated sender.
	From principal.ID
	// Method is bound into the signature so an envelope cannot be
	// replayed against another handler.
	Method string
	// Body is the request payload.
	Body []byte
	// Timestamp and Nonce limit replay.
	Timestamp time.Time
	Nonce     []byte
	// Signature covers everything above.
	Signature []byte
}

func envelopeBytes(from principal.ID, method string, body []byte, ts time.Time, nonce []byte) []byte {
	e := wire.NewEncoder(128 + len(body))
	e.String("svc-envelope-v1")
	from.Encode(e)
	e.String(method)
	e.Bytes32(body)
	e.Time(ts)
	e.Bytes32(nonce)
	return e.Bytes()
}

// sealedCall performs one authenticated RPC: it seals body with a
// fresh nonce and sends it once.
func sealedCall(client transport.Client, ident *pubkey.Identity, clk clock.Clock, method string, body []byte) ([]byte, error) {
	sealed, err := Seal(ident, method, body, clk)
	if err != nil {
		return nil, err
	}
	return client.Call(method, sealed)
}

// Seal signs a request for transport.
func Seal(from *pubkey.Identity, method string, body []byte, clk clock.Clock) ([]byte, error) {
	if clk == nil {
		clk = clock.System{}
	}
	nonce, err := kcrypto.Nonce(16)
	if err != nil {
		return nil, err
	}
	ts := clk.Now()
	sig, err := from.Signer().Sign(envelopeBytes(from.ID, method, body, ts, nonce))
	if err != nil {
		return nil, err
	}
	e := wire.NewEncoder(256 + len(body))
	from.ID.Encode(e)
	e.String(method)
	e.Bytes32(body)
	e.Time(ts)
	e.Bytes32(nonce)
	e.Bytes32(sig)
	mSeal.Inc()
	return e.Bytes(), nil
}

// Opener verifies envelopes for a service.
type Opener struct {
	resolve func(principal.ID) (kcrypto.Verifier, error)
	clk     clock.Clock
	cache   *replay.Cache
}

// NewOpener builds an Opener resolving sender keys through resolve.
func NewOpener(resolve func(principal.ID) (kcrypto.Verifier, error), clk clock.Clock) *Opener {
	if clk == nil {
		clk = clock.System{}
	}
	return &Opener{resolve: resolve, clk: clk, cache: replay.New(clk)}
}

// Open verifies a sealed envelope for method and returns the sender and
// body. Every verification outcome — including replay rejections — is
// counted in the envelope metrics.
func (o *Opener) Open(method string, raw []byte) (from principal.ID, body []byte, err error) {
	from, body, err = o.open(method, raw)
	mOpen.With(openOutcome(err)).Inc()
	return from, body, err
}

func (o *Opener) open(method string, raw []byte) (principal.ID, []byte, error) {
	d := wire.NewDecoder(raw)
	from := principal.DecodeID(d)
	gotMethod := d.String()
	body := d.Bytes32()
	ts := d.Time()
	nonce := d.Bytes32()
	sig := d.Bytes32()
	if err := d.Finish(); err != nil {
		return principal.ID{}, nil, fmt.Errorf("%w: %v", ErrBadEnvelope, err)
	}
	if gotMethod != method {
		return principal.ID{}, nil, fmt.Errorf("%w: method %q in envelope for %q", ErrBadEnvelope, gotMethod, method)
	}
	v, err := o.resolve(from)
	if err != nil {
		return principal.ID{}, nil, fmt.Errorf("%w: resolve %s: %v", ErrBadEnvelope, from, err)
	}
	if err := v.Verify(envelopeBytes(from, method, body, ts, nonce), sig); err != nil {
		return principal.ID{}, nil, fmt.Errorf("%w: %v", ErrBadEnvelope, err)
	}
	now := o.clk.Now()
	if ts.Before(now.Add(-envelopeSkew)) || ts.After(now.Add(envelopeSkew)) {
		return principal.ID{}, nil, fmt.Errorf("%w: at %v", ErrStale, ts)
	}
	if err := o.cache.Seen(fmt.Sprintf("env:%s:%x", from, nonce), ts.Add(2*envelopeSkew)); err != nil {
		return principal.ID{}, nil, fmt.Errorf("%w: %v", ErrReplayed, err)
	}
	return from, body, nil
}
