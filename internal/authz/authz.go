// Package authz implements the authorization server of §3.2: a service
// that "grants a restricted proxy allowing the authorized client ... to
// act as the authorization server for the purpose of asserting the
// client's rights to access particular objects. The restrictions in the
// proxy (in this case a list of authorized actions) are determined by
// consulting the authorization server's database."
//
// The end-server participates by naming the authorization server in its
// own ACL (§3.5); the proxy this package issues then conveys the
// authorization server's rights, narrowed to exactly the actions the
// database allows the client.
package authz

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"proxykit/internal/acl"
	"proxykit/internal/audit"
	"proxykit/internal/clock"
	"proxykit/internal/durable"
	"proxykit/internal/obs"
	"proxykit/internal/principal"
	"proxykit/internal/proxy"
	"proxykit/internal/pubkey"
	"proxykit/internal/restrict"
)

// Errors returned by the authorization server.
var (
	ErrNotAuthorized = errors.New("authz: client not authorized")
	ErrNoRules       = errors.New("authz: no rules for end-server")
)

// Rule is one line of the authorization database: who may do what to
// which object on which end-server, with associated restrictions that
// are copied into issued proxies (§3.5).
type Rule struct {
	// EndServer the rule applies to.
	EndServer principal.ID
	// Object on that end-server.
	Object string
	// Subject that must match the requesting client.
	Subject acl.Subject
	// Ops permitted; empty means all.
	Ops []string
	// Restrictions copied into the issued proxy.
	Restrictions restrict.Set
}

// Server is the authorization server.
type Server struct {
	// ID is the server's principal identity — the name end-servers put
	// in their ACLs to delegate authorization.
	ID principal.ID

	// Store owns the ledger, the commit gate, recovery, and replication
	// apply; persist.go implements its Machine.
	durable.Store

	identity *pubkey.Identity
	clk      clock.Clock

	mu      sync.RWMutex
	rules   []Rule
	journal *audit.Journal
}

// SetJournal attaches an audit journal; every Grant decision is sealed
// into its chain.
func (s *Server) SetJournal(j *audit.Journal) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = j
}

// New creates an authorization server with the given signing identity.
func New(identity *pubkey.Identity, clk clock.Clock) *Server {
	if clk == nil {
		clk = clock.System{}
	}
	s := &Server{ID: identity.ID, identity: identity, clk: clk}
	s.Bind(s, "authz")
	return s
}

// AddRule appends a rule to the database. With a ledger attached the
// rule is durably logged before it becomes visible.
func (s *Server) AddRule(r Rule) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.commitLocked(r)
}

// Rules returns a copy of the database.
func (s *Server) Rules() []Rule {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Rule, len(s.rules))
	copy(out, s.rules)
	return out
}

// RequestedObject names one object (and optionally specific operations)
// the client wants authorization for.
type RequestedObject struct {
	Object string
	// Ops requested; empty asks for everything the database allows.
	Ops []string
}

// GrantRequest asks for an authorization proxy (message 1 of Fig. 3).
// The caller (service layer) authenticates the client before invoking
// Grant.
type GrantRequest struct {
	// Client is the authenticated requesting principal.
	Client principal.ID
	// Identities are all authenticated identities presented (compound
	// support); Client is implied.
	Identities []principal.ID
	// Groups are memberships verified from group proxies presented with
	// the request (§3.3: group proxies may feed authorization servers).
	Groups map[principal.Global]bool
	// EndServer the proxy should be usable at.
	EndServer principal.ID
	// Objects requested; empty requests everything the database allows
	// the client on that end-server.
	Objects []RequestedObject
	// Lifetime of the issued proxy.
	Lifetime time.Duration
	// Delegate, when true, restricts the proxy to the client's identity
	// (a delegate proxy); otherwise possession of the proxy key
	// suffices.
	Delegate bool
	// Propagated carries restrictions from any proxies the client
	// presented to authenticate or to prove group membership; they are
	// propagated into the issued proxy per §7.9.
	Propagated restrict.Set
}

// Grant consults the database and issues the authorization proxy
// (message 2 of Fig. 3). The proxy's restrictions are the granted
// (object, ops) list, an issued-for restriction confining it to the
// end-server, the restrictions of every matched rule, and the
// propagated restrictions.
func (s *Server) Grant(req *GrantRequest) (*proxy.Proxy, error) {
	return s.GrantCtx(context.Background(), req)
}

// GrantCtx is Grant with a request context; the context's trace ID is
// stamped onto the audit record.
func (s *Server) GrantCtx(ctx context.Context, req *GrantRequest) (p *proxy.Proxy, err error) {
	defer func() {
		if err != nil {
			mGrants.With("denied").Inc()
		} else {
			mGrants.With("granted").Inc()
		}
		s.auditGrant(ctx, req, err)
	}()
	identities := req.Identities
	if len(identities) == 0 && !req.Client.IsZero() {
		identities = []principal.ID{req.Client}
	}
	matched, entries, ruleRestrictions := s.match(req.EndServer, req.Objects, identities, req.Groups)
	if !matched {
		return nil, fmt.Errorf("%w: %s at %s", ErrNotAuthorized, req.Client, req.EndServer)
	}

	rs := restrict.Set{
		restrict.Authorized{Entries: entries},
		restrict.IssuedFor{Servers: []principal.ID{req.EndServer}},
	}
	rs = rs.Merge(ruleRestrictions)
	rs = rs.Merge(req.Propagated.Propagate([]principal.ID{req.EndServer}))
	if req.Delegate {
		rs = rs.Merge(restrict.Set{restrict.Grantee{Principals: []principal.ID{req.Client}}})
	}
	lifetime := req.Lifetime
	if lifetime <= 0 {
		lifetime = time.Hour
	}
	return proxy.Grant(proxy.GrantParams{
		Grantor:       s.ID,
		GrantorSigner: s.identity.Signer(),
		Restrictions:  rs,
		Lifetime:      lifetime,
		Mode:          proxy.ModePublicKey,
		Clock:         s.clk,
	})
}

// auditGrant records one grant decision if a journal is attached.
func (s *Server) auditGrant(ctx context.Context, req *GrantRequest, err error) {
	s.mu.RLock()
	j := s.journal
	s.mu.RUnlock()
	if j == nil {
		return
	}
	objects := make([]string, len(req.Objects))
	for i, o := range req.Objects {
		objects[i] = o.Object
	}
	presenters := req.Identities
	if len(presenters) == 0 && !req.Client.IsZero() {
		presenters = []principal.ID{req.Client}
	}
	rec := audit.Record{
		Time:       s.clk.Now(),
		Kind:       audit.KindAuthzGrant,
		Server:     s.ID,
		TraceID:    obs.TraceIDFrom(ctx),
		Presenters: presenters,
		Object:     strings.Join(objects, ","),
		Op:         "grant",
		Outcome:    audit.OutcomeGranted,
		Detail: map[string]string{
			"endServer": req.EndServer.String(),
			"delegate":  fmt.Sprint(req.Delegate),
		},
	}
	if err != nil {
		rec.Outcome = audit.OutcomeDenied
		rec.Reason = err.Error()
	}
	j.Append(rec)
}

// match computes the granted (object, ops) entries for the client.
func (s *Server) match(endServer principal.ID, requested []RequestedObject, identities []principal.ID, groups map[principal.Global]bool) (bool, []restrict.AuthorizedEntry, restrict.Set) {
	s.mu.RLock()
	defer s.mu.RUnlock()

	var entries []restrict.AuthorizedEntry
	var rs restrict.Set
	for _, rule := range s.rules {
		if rule.EndServer != endServer {
			continue
		}
		if !subjectMatches(rule.Subject, identities, groups) {
			continue
		}
		ops := grantedOps(rule, requested)
		if ops == nil {
			continue
		}
		entries = append(entries, restrict.AuthorizedEntry{Object: rule.Object, Ops: ops})
		rs = rs.Merge(rule.Restrictions)
	}
	return len(entries) > 0, entries, rs
}

// grantedOps intersects a rule with the request, returning nil when the
// rule contributes nothing. An empty non-nil slice means "all ops".
func grantedOps(rule Rule, requested []RequestedObject) []string {
	if len(requested) == 0 {
		ops := make([]string, len(rule.Ops))
		copy(ops, rule.Ops)
		return ops
	}
	for _, req := range requested {
		if req.Object != rule.Object {
			continue
		}
		if len(rule.Ops) == 0 {
			// Rule allows all; grant what was asked (or all).
			ops := make([]string, len(req.Ops))
			copy(ops, req.Ops)
			return ops
		}
		if len(req.Ops) == 0 {
			ops := make([]string, len(rule.Ops))
			copy(ops, rule.Ops)
			return ops
		}
		var ops []string
		for _, want := range req.Ops {
			for _, have := range rule.Ops {
				if want == have {
					ops = append(ops, want)
					break
				}
			}
		}
		if len(ops) > 0 {
			return ops
		}
		return nil
	}
	return nil
}

// subjectMatches mirrors acl matching for the rule subject.
func subjectMatches(sub acl.Subject, identities []principal.ID, groups map[principal.Global]bool) bool {
	if len(sub.Principals) == 0 && len(sub.Groups) == 0 {
		return false
	}
	if !sub.Principals.SatisfiedBy(identities) {
		return false
	}
	for _, g := range sub.Groups {
		if !groups[g] {
			return false
		}
	}
	return true
}
