// Package restrict implements the typed restriction model of §7 of the
// paper. A restriction set is "a collection of typed subfields, each type
// corresponding to a different restriction"; restrictions are strictly
// additive — adding one can only narrow what a proxy permits, never widen
// it (§6.2: "restrictions must be additive").
//
// The package provides:
//
//   - the eight restriction types named by the paper (grantee,
//     for-use-by-group, issued-for, quota, authorized, group-membership,
//     accept-once, limit-restriction);
//   - deterministic encoding so restriction sets can be embedded in
//     signed certificates;
//   - an evaluation engine: an end-server builds a Context describing the
//     presented request and evaluates the accumulated restriction set of
//     a proxy chain against it;
//   - the propagation rule of §7.9 for servers that issue proxies based
//     on proxies.
package restrict

import (
	"errors"
	"fmt"
	"strings"

	"proxykit/internal/principal"
	"proxykit/internal/wire"
)

// Type identifies a restriction kind on the wire.
type Type uint8

// Restriction types defined by §7 of the paper.
const (
	TypeGrantee Type = iota + 1
	TypeForUseByGroup
	TypeIssuedFor
	TypeQuota
	TypeAuthorized
	TypeGroupMembership
	TypeAcceptOnce
	TypeLimit
	// TypeDepositTo is the endorsement restriction of §4 (Fig. 5): the
	// "dep ckno to $1" subfield directing a check's proceeds to a
	// specific account. Endorsers scope it to the bank that must honor
	// it by nesting it in a limit-restriction.
	TypeDepositTo
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeGrantee:
		return "grantee"
	case TypeForUseByGroup:
		return "for-use-by-group"
	case TypeIssuedFor:
		return "issued-for"
	case TypeQuota:
		return "quota"
	case TypeAuthorized:
		return "authorized"
	case TypeGroupMembership:
		return "group-membership"
	case TypeAcceptOnce:
		return "accept-once"
	case TypeLimit:
		return "limit-restriction"
	case TypeDepositTo:
		return "deposit-to"
	default:
		return fmt.Sprintf("restriction(%d)", uint8(t))
	}
}

// Errors from decoding and evaluation.
var (
	ErrUnknownType = errors.New("restrict: unknown restriction type")
	ErrMalformed   = errors.New("restrict: malformed restriction")
)

// DeniedError reports which restriction rejected a request and why. The
// paper requires end-servers to be able to explain denials for audit.
type DeniedError struct {
	// Restriction is the kind that failed.
	Restriction Type
	// Reason is a human-readable explanation.
	Reason string
}

// Error implements error.
func (e *DeniedError) Error() string {
	return fmt.Sprintf("restrict: denied by %s: %s", e.Restriction, e.Reason)
}

func denied(t Type, format string, args ...any) error {
	return &DeniedError{Restriction: t, Reason: fmt.Sprintf(format, args...)}
}

// Restriction is one typed condition on the use of a proxy.
type Restriction interface {
	// Type reports the restriction kind.
	Type() Type
	// Check evaluates the restriction against a presented request,
	// returning nil if the request satisfies it and a *DeniedError
	// otherwise.
	Check(ctx *Context) error
	// encodeBody appends the type-specific body (without the type tag).
	encodeBody(e *wire.Encoder)
	// String renders a human-readable form for audit logs.
	String() string
}

// Grantee restricts the proxy to named principals (§7.1). "This
// restriction specifies a list of principals authorized to use a proxy
// and the number of principals from the list needed to exercise the
// proxy." A proxy whose accumulated restrictions include no Grantee is a
// bearer proxy.
type Grantee struct {
	// Principals may exercise the proxy.
	Principals []principal.ID
	// Needed is how many listed principals must authenticate
	// concurrently; 0 is treated as 1.
	Needed int
}

// Type implements Restriction.
func (Grantee) Type() Type { return TypeGrantee }

// Check implements Restriction: at least Needed of the listed principals
// must appear among the authenticated client identities.
func (g Grantee) Check(ctx *Context) error {
	needed := g.Needed
	if needed <= 0 {
		needed = 1
	}
	have := 0
	for _, p := range g.Principals {
		for _, c := range ctx.ClientIdentities {
			if p == c {
				have++
				break
			}
		}
	}
	if have < needed {
		return denied(TypeGrantee, "%d of %d required grantees authenticated (need %d)",
			have, len(g.Principals), needed)
	}
	return nil
}

func (g Grantee) encodeBody(e *wire.Encoder) {
	e.Uint32(uint32(g.Needed))
	e.Uint32(uint32(len(g.Principals)))
	for _, p := range g.Principals {
		p.Encode(e)
	}
}

// String implements Restriction.
func (g Grantee) String() string {
	return fmt.Sprintf("grantee(%s need %d)", joinIDs(g.Principals), max(g.Needed, 1))
}

// ForUseByGroup restricts the proxy to members of named groups (§7.2).
// The bearer must present group-membership proxies from the listed group
// servers; requiring multiple disjoint groups implements separation of
// privilege.
type ForUseByGroup struct {
	// Groups whose membership may exercise the proxy.
	Groups []principal.Global
	// Needed is how many listed groups must be asserted; 0 means 1.
	Needed int
}

// Type implements Restriction.
func (ForUseByGroup) Type() Type { return TypeForUseByGroup }

// Check implements Restriction.
func (f ForUseByGroup) Check(ctx *Context) error {
	needed := f.Needed
	if needed <= 0 {
		needed = 1
	}
	have := 0
	for _, g := range f.Groups {
		if ctx.VerifiedGroups[g] {
			have++
		}
	}
	if have < needed {
		return denied(TypeForUseByGroup, "%d of %d required group memberships asserted (need %d)",
			have, len(f.Groups), needed)
	}
	return nil
}

func (f ForUseByGroup) encodeBody(e *wire.Encoder) {
	e.Uint32(uint32(f.Needed))
	e.Uint32(uint32(len(f.Groups)))
	for _, g := range f.Groups {
		g.Encode(e)
	}
}

// String implements Restriction.
func (f ForUseByGroup) String() string {
	parts := make([]string, len(f.Groups))
	for i, g := range f.Groups {
		parts[i] = g.String()
	}
	return fmt.Sprintf("for-use-by-group(%s need %d)", strings.Join(parts, ","), max(f.Needed, 1))
}

// IssuedFor restricts which end-servers may accept the proxy (§7.3).
// "This restriction is important for public-key proxies which are
// otherwise verifiable by and exercisable on all servers."
type IssuedFor struct {
	// Servers authorized to accept the proxy.
	Servers []principal.ID
}

// Type implements Restriction.
func (IssuedFor) Type() Type { return TypeIssuedFor }

// Check implements Restriction.
func (f IssuedFor) Check(ctx *Context) error {
	for _, s := range f.Servers {
		if s == ctx.Server {
			return nil
		}
	}
	return denied(TypeIssuedFor, "server %s not among %s", ctx.Server, joinIDs(f.Servers))
}

func (f IssuedFor) encodeBody(e *wire.Encoder) {
	e.Uint32(uint32(len(f.Servers)))
	for _, s := range f.Servers {
		s.Encode(e)
	}
}

// String implements Restriction.
func (f IssuedFor) String() string {
	return fmt.Sprintf("issued-for(%s)", joinIDs(f.Servers))
}

// Quota limits the quantity of a resource that may be consumed (§7.4).
// "It will most often be found in a proxy issued by an accounting
// server."
type Quota struct {
	// Currency names the resource (monetary or resource-specific).
	Currency string
	// Limit is the maximum quantity.
	Limit int64
}

// Type implements Restriction.
func (Quota) Type() Type { return TypeQuota }

// Check implements Restriction: the requested amount in the quota's
// currency must not exceed the limit. Multiple quota restrictions for
// the same currency accumulate to the minimum automatically because each
// is checked independently.
func (q Quota) Check(ctx *Context) error {
	req := ctx.Amounts[q.Currency]
	if req > q.Limit {
		return denied(TypeQuota, "requested %d %s exceeds limit %d", req, q.Currency, q.Limit)
	}
	return nil
}

func (q Quota) encodeBody(e *wire.Encoder) {
	e.String(q.Currency)
	e.Int64(q.Limit)
}

// String implements Restriction.
func (q Quota) String() string { return fmt.Sprintf("quota(%d %s)", q.Limit, q.Currency) }

// AuthorizedEntry names one object and the operations permitted on it.
// An empty Ops list permits every operation on the object. "There are no
// constraints on the form of the object names or the list of operations
// other than that the grantor and the end-server must agree" (§7.5).
type AuthorizedEntry struct {
	// Object is the end-server-interpreted object name.
	Object string
	// Ops lists permitted operations; empty means all.
	Ops []string
}

// Authorized enumerates the complete list of objects accessible with the
// proxy (§7.5). "This restriction usually appears in proxies used as
// capabilities. It also appears in proxies returned by an authorization
// server."
type Authorized struct {
	// Entries are the permitted (object, operations) pairs.
	Entries []AuthorizedEntry
}

// Type implements Restriction.
func (Authorized) Type() Type { return TypeAuthorized }

// Check implements Restriction.
func (a Authorized) Check(ctx *Context) error {
	for _, ent := range a.Entries {
		if ent.Object != ctx.Object {
			continue
		}
		if len(ent.Ops) == 0 {
			return nil
		}
		for _, op := range ent.Ops {
			if op == ctx.Operation {
				return nil
			}
		}
	}
	return denied(TypeAuthorized, "operation %q on object %q not in authorized list",
		ctx.Operation, ctx.Object)
}

func (a Authorized) encodeBody(e *wire.Encoder) {
	e.Uint32(uint32(len(a.Entries)))
	for _, ent := range a.Entries {
		e.String(ent.Object)
		e.StringSlice(ent.Ops)
	}
}

// String implements Restriction.
func (a Authorized) String() string {
	parts := make([]string, len(a.Entries))
	for i, ent := range a.Entries {
		if len(ent.Ops) == 0 {
			parts[i] = ent.Object + ":*"
		} else {
			parts[i] = ent.Object + ":" + strings.Join(ent.Ops, "|")
		}
	}
	return fmt.Sprintf("authorized(%s)", strings.Join(parts, ","))
}

// GroupMembership limits the groups a group-server proxy may assert
// (§7.6). "Without this restriction, the grantee would be considered a
// member of all groups maintained by the group server granting the
// proxy."
type GroupMembership struct {
	// Groups the grantee may claim membership in.
	Groups []principal.Global
}

// Type implements Restriction.
func (GroupMembership) Type() Type { return TypeGroupMembership }

// Check implements Restriction: every membership the request asserts on
// behalf of this proxy must be listed.
func (g GroupMembership) Check(ctx *Context) error {
	for _, asserted := range ctx.AssertedGroups {
		ok := false
		for _, allowed := range g.Groups {
			if asserted == allowed {
				ok = true
				break
			}
		}
		if !ok {
			return denied(TypeGroupMembership, "membership in %s not granted", asserted)
		}
	}
	return nil
}

func (g GroupMembership) encodeBody(e *wire.Encoder) {
	e.Uint32(uint32(len(g.Groups)))
	for _, gr := range g.Groups {
		gr.Encode(e)
	}
}

// String implements Restriction.
func (g GroupMembership) String() string {
	parts := make([]string, len(g.Groups))
	for i, gr := range g.Groups {
		parts[i] = gr.String()
	}
	return fmt.Sprintf("group-membership(%s)", strings.Join(parts, ","))
}

// AcceptOnce tells an end-server to accept the proxy at most once within
// its validity period (§7.7). "A real life example of such an identifier
// is a check number."
type AcceptOnce struct {
	// ID is the once-only identifier, unique per grantor.
	ID string
}

// Type implements Restriction.
func (AcceptOnce) Type() Type { return TypeAcceptOnce }

// Check implements Restriction by consulting the context's replay
// recorder. Servers that evaluate accept-once proxies must supply one;
// absence fails closed.
func (a AcceptOnce) Check(ctx *Context) error {
	if ctx.AcceptOnce == nil {
		return denied(TypeAcceptOnce, "server provides no accept-once registry")
	}
	if err := ctx.AcceptOnce.Accept(ctx.GrantorKeyID, a.ID, ctx.Expires); err != nil {
		return denied(TypeAcceptOnce, "identifier %q: %v", a.ID, err)
	}
	return nil
}

func (a AcceptOnce) encodeBody(e *wire.Encoder) { e.String(a.ID) }

// String implements Restriction.
func (a AcceptOnce) String() string { return fmt.Sprintf("accept-once(%s)", a.ID) }

// Limit scopes embedded restrictions to particular end-servers (§7.8).
// "The restrictions embedded within this restriction will be enforced by
// the named servers and ignored by others."
type Limit struct {
	// Servers to which the embedded restrictions apply.
	Servers []principal.ID
	// Restrictions enforced only on those servers.
	Restrictions Set
}

// Type implements Restriction.
func (Limit) Type() Type { return TypeLimit }

// Check implements Restriction: if the evaluating server is listed, every
// embedded restriction is checked; otherwise the restriction is ignored.
func (l Limit) Check(ctx *Context) error {
	applies := false
	for _, s := range l.Servers {
		if s == ctx.Server {
			applies = true
			break
		}
	}
	if !applies {
		return nil
	}
	return l.Restrictions.Check(ctx)
}

func (l Limit) encodeBody(e *wire.Encoder) {
	e.Uint32(uint32(len(l.Servers)))
	for _, s := range l.Servers {
		s.Encode(e)
	}
	l.Restrictions.Encode(e)
}

// String implements Restriction.
func (l Limit) String() string {
	return fmt.Sprintf("limit(%s: %s)", joinIDs(l.Servers), l.Restrictions)
}

// DepositTo is the endorsement restriction of §4: it directs a check's
// proceeds to a named account. An endorsement "[dep ckno to $1]" is
// encoded as Limit{Servers: [$1], Restrictions: {DepositTo{account}}} so
// each bank in the clearing chain honors only its own instruction.
type DepositTo struct {
	// Account the proceeds must be credited to.
	Account principal.Global
}

// Type implements Restriction.
func (DepositTo) Type() Type { return TypeDepositTo }

// Check implements Restriction: the transaction's credited account must
// match. Requests that credit no account (DepositAccount zero) fail —
// the restriction demands a deposit.
func (dt DepositTo) Check(ctx *Context) error {
	if ctx.DepositAccount != dt.Account {
		return denied(TypeDepositTo, "proceeds directed to %s, not %s", ctx.DepositAccount, dt.Account)
	}
	return nil
}

func (dt DepositTo) encodeBody(e *wire.Encoder) { dt.Account.Encode(e) }

// String implements Restriction.
func (dt DepositTo) String() string { return fmt.Sprintf("deposit-to(%s)", dt.Account) }

func joinIDs(ids []principal.ID) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = id.String()
	}
	return strings.Join(parts, ",")
}

// Set is an ordered collection of restrictions. Order is preserved for
// deterministic encoding; semantics are conjunction — every restriction
// must pass.
type Set []Restriction

// Check evaluates every restriction against ctx, failing on the first
// denial. An empty set permits everything (the grantor's full rights, as
// for an unrestricted proxy).
func (s Set) Check(ctx *Context) error {
	for _, r := range s {
		if err := r.Check(ctx); err != nil {
			return err
		}
	}
	return nil
}

// HasGrantee reports whether any restriction in the set (including those
// nested in Limit restrictions that apply to server) names a grantee.
// A proxy chain with no grantee restriction is a bearer proxy (§7.1).
func (s Set) HasGrantee(server principal.ID) bool {
	for _, r := range s {
		switch r := r.(type) {
		case Grantee:
			return true
		case Limit:
			for _, srv := range r.Servers {
				if srv == server && r.Restrictions.HasGrantee(server) {
					return true
				}
			}
		}
	}
	return false
}

// Grantees returns the union of all principals named in Grantee
// restrictions in the set (ignoring Limit nesting); the delegate set an
// end-server checks cascaded delegate proxies against.
func (s Set) Grantees() []principal.ID {
	var out []principal.ID
	for _, r := range s {
		if g, ok := r.(Grantee); ok {
			out = append(out, g.Principals...)
		}
	}
	return out
}

// Merge returns the additive combination of s and more: simple
// concatenation, because restriction semantics are conjunctive. The
// receiver is not modified.
func (s Set) Merge(more Set) Set {
	out := make(Set, 0, len(s)+len(more))
	out = append(out, s...)
	out = append(out, more...)
	return out
}

// Propagate implements §7.9: a server that issues a proxy based on a
// presented proxy copies the presented restrictions into the issued
// proxy. A Limit restriction may be dropped when the issued proxy (and
// anything derived from it) cannot be used at any of the servers it
// names; issuedFor is the set of servers the new proxy is confined to
// (via its own IssuedFor restriction). If issuedFor is empty the new
// proxy's audience is unknown and every Limit is retained.
func (s Set) Propagate(issuedFor []principal.ID) Set {
	if len(issuedFor) == 0 {
		out := make(Set, len(s))
		copy(out, s)
		return out
	}
	audience := principal.NewSet(issuedFor...)
	out := make(Set, 0, len(s))
	for _, r := range s {
		if l, ok := r.(Limit); ok {
			relevant := false
			for _, srv := range l.Servers {
				if audience.Contains(srv) {
					relevant = true
					break
				}
			}
			if !relevant {
				continue
			}
		}
		out = append(out, r)
	}
	return out
}

// Quotas returns the effective (minimum) limit per currency across the
// set, for servers that need to inspect quotas directly (e.g. accounting
// servers computing holds).
func (s Set) Quotas() map[string]int64 {
	out := make(map[string]int64)
	for _, r := range s {
		q, ok := r.(Quota)
		if !ok {
			continue
		}
		if cur, seen := out[q.Currency]; !seen || q.Limit < cur {
			out[q.Currency] = q.Limit
		}
	}
	return out
}

// String renders the set for audit logs.
func (s Set) String() string {
	if len(s) == 0 {
		return "(unrestricted)"
	}
	parts := make([]string, len(s))
	for i, r := range s {
		parts[i] = r.String()
	}
	return strings.Join(parts, " & ")
}
