// Package endserver implements the application end-server side of the
// proxy model: it verifies presented proxies, consults per-object
// access-control-lists, credits group memberships from group proxies,
// and evaluates accumulated restrictions — the ACL/capability
// combination of §3.5.
//
// "Application servers would be designed to base authorization on a
// local access-control-list. Where a capability-based approach is
// required, the access-control-list would contain a single entry naming
// the principal ... authorized to grant capabilities for server
// operations."
package endserver

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"proxykit/internal/acl"
	"proxykit/internal/audit"
	"proxykit/internal/clock"
	"proxykit/internal/obs"
	"proxykit/internal/principal"
	"proxykit/internal/proxy"
	"proxykit/internal/replay"
	"proxykit/internal/restrict"
)

// Errors returned by authorization.
var (
	ErrDenied       = errors.New("endserver: request denied")
	ErrBadChallenge = errors.New("endserver: unknown or expired challenge")
)

// challengeLifetime bounds how long an issued challenge may be used.
const challengeLifetime = 2 * time.Minute

// Server authorizes requests against per-object ACLs using direct
// identities and presented proxies.
type Server struct {
	// ID is the server's principal identity.
	ID principal.ID

	env      *proxy.VerifyEnv
	clk      clock.Clock
	registry *replay.Cache

	mu         sync.Mutex
	objects    map[string]*acl.ACL
	challenges map[string]time.Time
	journal    *audit.Journal
}

// New creates a Server with the supplied proxy verification environment.
// The environment is copied — New never mutates the caller's env, so
// one env can safely parameterize several servers — and the copy's
// Server and Clock fields are set from the arguments.
func New(id principal.ID, env *proxy.VerifyEnv, clk clock.Clock) *Server {
	if clk == nil {
		clk = clock.System{}
	}
	e := *env
	e.Server = id
	if e.Clock == nil {
		e.Clock = clk
	}
	return &Server{
		ID:         id,
		env:        &e,
		clk:        clk,
		registry:   replay.New(clk),
		objects:    make(map[string]*acl.ACL),
		challenges: make(map[string]time.Time),
	}
}

// SetChainCache installs a verified-chain cache on the server's
// verification environment: byte-identical pure public-key chains skip
// signature re-verification on repeat presentations, while validity
// windows, proof-of-possession, replay registration, and ACL
// evaluation still run on every request. Call during setup, before the
// server starts taking requests; nil disables caching.
func (s *Server) SetChainCache(cc *proxy.ChainCache) {
	s.env.Cache = cc
}

// SetAuditLog attaches an audit log; every Authorize decision is
// recorded, preserving the delegation trail of §3.4. The log's
// underlying journal becomes the server's journal.
func (s *Server) SetAuditLog(l *audit.Log) {
	s.SetJournal(l.Journal())
}

// SetJournal attaches a hash-chained audit journal; every Authorize
// decision is sealed into its chain.
func (s *Server) SetJournal(j *audit.Journal) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = j
}

// auditDecision records one decision if a journal is attached.
func (s *Server) auditDecision(ctx context.Context, req *Request, d *Decision, err error) {
	s.mu.Lock()
	j := s.journal
	s.mu.Unlock()
	if j == nil {
		return
	}
	rec := audit.Record{
		Time:       s.clk.Now(),
		Kind:       audit.KindAuthorize,
		Server:     s.ID,
		TraceID:    obs.TraceIDFrom(ctx),
		Presenters: req.Identities,
		Object:     req.Object,
		Op:         req.Op,
	}
	if err != nil {
		rec.Outcome = audit.OutcomeDenied
		rec.Reason = err.Error()
	} else {
		rec.Outcome = audit.OutcomeGranted
		if d.ViaProxy {
			rec.Grantor = d.Via
		}
		rec.Trail = d.Trail
	}
	j.Append(rec)
}

// SetACL installs the ACL for an object.
func (s *Server) SetACL(object string, a *acl.ACL) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objects[object] = a
}

// aclFor returns the ACL for object, nil if it has none.
func (s *Server) aclFor(object string) *acl.ACL {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.objects[object]
}

// Hints returns the subjects of the ACL entries protecting object — the
// "a priori knowledge about the authorization credentials needed"
// (message 0 of Fig. 3), which the paper says "might be ... obtained
// from the end-server directly". A client reads the hints to learn
// which principals, authorization servers, or groups can convey access.
func (s *Server) Hints(object string) []acl.Subject {
	a := s.aclFor(object)
	if a == nil {
		return nil
	}
	entries := a.Entries()
	out := make([]acl.Subject, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.Subject)
	}
	return out
}

// Registry exposes the server's accept-once registry.
func (s *Server) Registry() restrict.AcceptOnceRegistry { return s.registry }

// Challenge issues a fresh single-use challenge for bearer-proxy
// presentation.
func (s *Server) Challenge() ([]byte, error) {
	ch, err := proxy.NewChallenge()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clk.Now()
	// Expire stale challenges here too, so clients that fetch challenges
	// and never use them cannot grow the map without bound.
	for k, e := range s.challenges {
		if now.After(e) {
			delete(s.challenges, k)
		}
	}
	s.challenges[hex.EncodeToString(ch)] = now.Add(challengeLifetime)
	mChallengesIssued.Inc()
	return ch, nil
}

// consumeChallenge validates and retires a challenge.
func (s *Server) consumeChallenge(ch []byte) error {
	key := hex.EncodeToString(ch)
	s.mu.Lock()
	defer s.mu.Unlock()
	exp, ok := s.challenges[key]
	if !ok || s.clk.Now().After(exp) {
		mChallengesConsumed.With("rejected").Inc()
		return ErrBadChallenge
	}
	mChallengesConsumed.With("ok").Inc()
	delete(s.challenges, key)
	now := s.clk.Now()
	for k, e := range s.challenges { // opportunistic cleanup
		if now.After(e) {
			delete(s.challenges, k)
		}
	}
	return nil
}

// Request is one authorization question put to the server.
type Request struct {
	// Object and Op name the requested action.
	Object string
	Op     string
	// Identities are principals authenticated directly by the
	// underlying authentication substrate.
	Identities []principal.ID
	// Proxies are presented proxy chains: capabilities, authorization
	// proxies, and group proxies. Bearer presentations must carry a
	// proof over Challenge.
	Proxies []*proxy.Presentation
	// Challenge is the server-issued challenge the bearer proofs cover.
	Challenge []byte
	// Amounts is the resource consumption requested per currency.
	Amounts map[string]int64
}

// Decision reports how a request was authorized.
type Decision struct {
	// Via is the acting principal whose ACL entry matched — a direct
	// identity or a proxy grantor.
	Via principal.ID
	// ViaProxy reports whether a proxy conveyed the rights.
	ViaProxy bool
	// Entry is the matching ACL entry.
	Entry acl.Entry
	// Trail is the delegate-cascade audit trail, when a proxy was used.
	Trail []principal.ID
	// Groups lists memberships credited during the decision.
	Groups []principal.Global
}

// Authorize evaluates a request. It verifies every presented proxy,
// credits group memberships lazily against the object's ACL needs, then
// searches for an authorized acting principal: each direct identity and
// each proxy grantor in turn. The matched entry's restrictions and, for
// a proxy path, the proxy's accumulated restrictions must all pass. The
// decision is recorded in the attached audit journal, if any.
func (s *Server) Authorize(req *Request) (*Decision, error) {
	return s.AuthorizeCtx(context.Background(), req)
}

// AuthorizeCtx is Authorize with a request context; the context's
// trace ID (obs.TraceFrom) is stamped onto the audit record, joining
// the decision to the RPC span that carried it.
func (s *Server) AuthorizeCtx(ctx context.Context, req *Request) (*Decision, error) {
	d, err := s.authorize(ctx, req)
	if err != nil {
		mDecisions.With("denied").Inc()
	} else {
		mDecisions.With("granted").Inc()
	}
	s.auditDecision(ctx, req, d, err)
	return d, err
}

func (s *Server) authorize(ctx context.Context, req *Request) (*Decision, error) {
	a := s.aclFor(req.Object)
	if a == nil {
		return nil, fmt.Errorf("%w: no ACL for object %q", ErrDenied, req.Object)
	}

	// Verify presentations once. Bearer presentations consume the
	// challenge (proof-of-possession, §7.1).
	verified := make([]*proxy.Verified, 0, len(req.Proxies))
	challengeUsed := false
	for i, pr := range req.Proxies {
		if pr.Proof != nil && !challengeUsed {
			if err := s.consumeChallenge(req.Challenge); err != nil {
				return nil, err
			}
			challengeUsed = true
		}
		v, err := s.verifyPresentation(ctx, pr, req.Challenge)
		if err != nil {
			return nil, fmt.Errorf("proxy %d: %w", i, err)
		}
		verified = append(verified, v)
	}

	// Determine which groups the ACL could need and try to credit them
	// from group proxies.
	groups := s.creditGroups(a, req, verified)

	// Try direct identities first (local autonomy, §3.5) ...
	baseCtx := func() *restrict.Context {
		return &restrict.Context{
			Server:           s.ID,
			Object:           req.Object,
			Operation:        req.Op,
			ClientIdentities: req.Identities,
			VerifiedGroups:   groups,
			Amounts:          req.Amounts,
			Now:              s.clk.Now(),
			AcceptOnce:       s.registry,
		}
	}
	// Restriction denials explain more than ACL misses, so they take
	// precedence in the reported error.
	var restrictionErr, aclErr error
	if len(req.Identities) > 0 {
		entry, err := a.Match(acl.Query{Op: req.Op, Identities: req.Identities, Groups: groups})
		if err == nil {
			ctx := baseCtx()
			ctx.Expires = s.clk.Now().Add(challengeLifetime) // direct requests have no chain expiry
			if rerr := entry.Restrictions.Check(ctx); rerr == nil {
				return &Decision{Via: req.Identities[0], Entry: entry, Groups: groupList(groups)}, nil
			} else if restrictionErr == nil {
				restrictionErr = rerr
			}
		} else {
			aclErr = err
		}
	}

	// ... then each proxy's grantor.
	for i, v := range verified {
		entry, err := a.Match(acl.Query{Op: req.Op, Identities: append([]principal.ID{v.Grantor}, req.Identities...), Groups: groups})
		if err != nil {
			if aclErr == nil {
				aclErr = err
			}
			continue
		}
		ctx := baseCtx()
		if err := v.Authorize(ctx); err != nil {
			if restrictionErr == nil {
				restrictionErr = fmt.Errorf("proxy %d: %w", i, err)
			}
			continue
		}
		if err := entry.Restrictions.Check(ctx); err != nil {
			if restrictionErr == nil {
				restrictionErr = fmt.Errorf("proxy %d entry: %w", i, err)
			}
			continue
		}
		mChainLength.Observe(float64(v.ChainLen))
		return &Decision{
			Via:      v.Grantor,
			ViaProxy: true,
			Entry:    entry,
			Trail:    v.Trail,
			Groups:   groupList(groups),
		}, nil
	}
	cause := restrictionErr
	if cause == nil {
		cause = aclErr
	}
	if cause == nil {
		cause = acl.ErrDenied
	}
	return nil, fmt.Errorf("%w: %v", ErrDenied, cause)
}

// verifyPresentation validates one presented proxy and records a
// cache-aware "verify" span: the span's note distinguishes chains
// served from the verified-chain cache from fully verified ones, so
// /traces shows where Authorize latency went.
func (s *Server) verifyPresentation(ctx context.Context, pr *proxy.Presentation, challenge []byte) (*proxy.Verified, error) {
	tr, _ := obs.TraceFrom(ctx)
	start := time.Now()
	v, err := s.env.VerifyPresentation(pr, challenge)
	span := obs.Span{Trace: tr, Kind: "verify", Method: "proxy.chain", Start: start, Duration: time.Since(start)}
	switch {
	case err != nil:
		span.Err = err.Error()
	case v.Cached:
		span.Note = "chain-cache hit"
	case s.env.Cache != nil:
		span.Note = "chain-cache miss"
	}
	obs.Spans.Record(span)
	return v, err
}

// creditGroups determines which group memberships the presented group
// proxies can assert. Needed groups come from two places: groups named
// in the object's ACL (§3.3) and groups demanded by for-use-by-group
// restrictions in the presented proxies themselves (§7.2). A proxy from
// a group server with no group-membership restriction asserts every
// group on that server (§7.6).
func (s *Server) creditGroups(a *acl.ACL, req *Request, verified []*proxy.Verified) map[principal.Global]bool {
	needed := make(map[principal.Global]bool)
	for _, e := range a.Entries() {
		for _, g := range e.Subject.Groups {
			needed[g] = true
		}
	}
	for _, v := range verified {
		collectNeededGroups(v.Restrictions, s.ID, needed)
	}
	out := make(map[principal.Global]bool)
	if len(needed) == 0 {
		return out
	}
	for g := range needed {
		for _, v := range verified {
			if v.Grantor != g.Server {
				continue
			}
			ctx := &restrict.Context{
				Server:           s.ID,
				Object:           req.Object,
				Operation:        req.Op,
				ClientIdentities: req.Identities,
				AssertedGroups:   []principal.Global{g},
				Amounts:          req.Amounts,
				Now:              s.clk.Now(),
				AcceptOnce:       s.registry,
			}
			if err := v.Authorize(ctx); err == nil {
				out[g] = true
				break
			}
		}
	}
	return out
}

// collectNeededGroups gathers the groups named by for-use-by-group
// restrictions, descending into limit restrictions that apply to this
// server.
func collectNeededGroups(rs restrict.Set, server principal.ID, out map[principal.Global]bool) {
	for _, r := range rs {
		switch r := r.(type) {
		case restrict.ForUseByGroup:
			for _, g := range r.Groups {
				out[g] = true
			}
		case restrict.Limit:
			for _, sv := range r.Servers {
				if sv == server {
					collectNeededGroups(r.Restrictions, server, out)
					break
				}
			}
		}
	}
}

// groupList flattens a credited-group set in sorted order, so
// Decision.Groups (and the audit records built from it) are
// deterministic rather than jittering with map iteration.
func groupList(m map[principal.Global]bool) []principal.Global {
	out := make([]principal.Global, 0, len(m))
	for g := range m {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Server != out[j].Server {
			return out[i].Server.Less(out[j].Server)
		}
		return out[i].Name < out[j].Name
	})
	return out
}
