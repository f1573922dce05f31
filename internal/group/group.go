// Package group implements the group server of §3.3: it maintains group
// membership databases and "grants proxies that delegate the right to
// assert membership in a particular group".
//
// Group names are global: the composition of the group server's identity
// and the local group name. Groups may contain principals and nested
// groups — including groups maintained by other group servers, whose
// membership the client proves by presenting that server's group proxy.
package group

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"proxykit/internal/audit"
	"proxykit/internal/clock"
	"proxykit/internal/durable"
	"proxykit/internal/obs"
	"proxykit/internal/principal"
	"proxykit/internal/proxy"
	"proxykit/internal/pubkey"
	"proxykit/internal/restrict"
)

// Errors returned by the group server.
var (
	ErrUnknownGroup = errors.New("group: unknown group")
	ErrNotMember    = errors.New("group: not a member")
)

// members is one group's membership.
type members struct {
	principals principal.Set
	nested     []principal.Global
}

// Server is the group server.
type Server struct {
	// ID is the server's principal identity; it forms the server half of
	// every global group name this server maintains.
	ID principal.ID

	// Store owns the ledger, the commit gate, recovery, and replication
	// apply; persist.go implements its Machine.
	durable.Store

	identity *pubkey.Identity
	clk      clock.Clock

	mu      sync.RWMutex
	groups  map[string]*members
	journal *audit.Journal
}

// SetJournal attaches an audit journal; every Grant decision is sealed
// into its chain.
func (s *Server) SetJournal(j *audit.Journal) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = j
}

// New creates a group server with the given signing identity.
func New(identity *pubkey.Identity, clk clock.Clock) *Server {
	if clk == nil {
		clk = clock.System{}
	}
	s := &Server{
		ID:       identity.ID,
		identity: identity,
		clk:      clk,
		groups:   make(map[string]*members),
	}
	s.Bind(s, "group")
	return s
}

// Global returns the global name of a local group.
func (s *Server) Global(name string) principal.Global {
	return principal.NewGlobal(s.ID, name)
}

// AddGroup creates an empty group (idempotent).
func (s *Server) AddGroup(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.groups[name]; !ok {
		_ = s.commitLocked(&groupOp{Kind: gopAddGroup, Group: name})
	}
}

// AddMember adds a principal to a group, creating the group if needed.
func (s *Server) AddMember(name string, p principal.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.commitLocked(&groupOp{Kind: gopAddMember, Group: name, Principal: p.String()})
}

// AddNestedGroup makes every member of sub a member of name. sub may be
// local or maintained by another group server.
func (s *Server) AddNestedGroup(name string, sub principal.Global) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.commitLocked(&groupOp{Kind: gopAddNested, Group: name, Nested: sub.String()})
}

// RemoveMember removes a principal from a group. Outstanding group
// proxies remain valid until they expire — the expiration-based
// revocation trade-off of §3.1.
func (s *Server) RemoveMember(name string, p principal.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.groups[name]; ok {
		_ = s.commitLocked(&groupOp{Kind: gopRemoveMember, Group: name, Principal: p.String()})
	}
}

// GrantRequest asks for a group-membership proxy.
type GrantRequest struct {
	// Client is the authenticated requesting principal.
	Client principal.ID
	// Groups are the local group names the client wants to assert; all
	// must check out.
	Groups []string
	// VerifiedGroups are memberships already proven by group proxies
	// from other servers — used to satisfy nested foreign groups.
	VerifiedGroups map[principal.Global]bool
	// Lifetime of the issued proxy.
	Lifetime time.Duration
	// Delegate, when true, restricts the proxy to the client's identity.
	Delegate bool
	// Propagated restrictions from presented proxies (§7.9).
	Propagated restrict.Set
}

// Grant verifies membership and issues a proxy whose group-membership
// restriction limits assertion to exactly the verified groups (§7.6).
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
	if len(req.Groups) == 0 {
		return nil, fmt.Errorf("%w: no groups requested", ErrUnknownGroup)
	}
	granted := make([]principal.Global, 0, len(req.Groups))
	for _, name := range req.Groups {
		ok, err := s.IsMember(name, req.Client, req.VerifiedGroups)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("%w: %s in %s", ErrNotMember, req.Client, s.Global(name))
		}
		granted = append(granted, s.Global(name))
	}
	rs := restrict.Set{restrict.GroupMembership{Groups: granted}}
	rs = rs.Merge(req.Propagated.Propagate(nil))
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
	rec := audit.Record{
		Time:       s.clk.Now(),
		Kind:       audit.KindGroupGrant,
		Server:     s.ID,
		TraceID:    obs.TraceIDFrom(ctx),
		Presenters: []principal.ID{req.Client},
		Object:     strings.Join(req.Groups, ","),
		Op:         "grant",
		Outcome:    audit.OutcomeGranted,
		Detail:     map[string]string{"delegate": fmt.Sprint(req.Delegate)},
	}
	if err != nil {
		rec.Outcome = audit.OutcomeDenied
		rec.Reason = err.Error()
	}
	j.Append(rec)
}

// IsMember reports whether p belongs to the named local group, directly
// or through nesting. Foreign nested groups are satisfied by
// verifiedGroups; local nesting recurses with cycle protection.
func (s *Server) IsMember(name string, p principal.ID, verifiedGroups map[principal.Global]bool) (bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.isMemberLocked(name, p, verifiedGroups, make(map[string]bool))
}

func (s *Server) isMemberLocked(name string, p principal.ID, verified map[principal.Global]bool, visiting map[string]bool) (bool, error) {
	if visiting[name] {
		return false, nil // cycle; already being checked higher up
	}
	visiting[name] = true
	g, ok := s.groups[name]
	if !ok {
		return false, fmt.Errorf("%w: %s", ErrUnknownGroup, s.Global(name))
	}
	if g.principals.Contains(p) {
		return true, nil
	}
	for _, sub := range g.nested {
		if sub.Server == s.ID {
			ok, err := s.isMemberLocked(sub.Name, p, verified, visiting)
			if err != nil {
				// Unknown local nested groups are skipped rather than
				// failing the whole check; the database may be edited
				// out of order.
				continue
			}
			if ok {
				return true, nil
			}
			continue
		}
		if verified[sub] {
			return true, nil
		}
	}
	return false, nil
}

// Groups returns the names of all local groups, sorted: listings (and
// anything hashed or golden-tested downstream) must not jitter with
// map iteration order.
func (s *Server) Groups() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.groups))
	for name := range s.groups {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
