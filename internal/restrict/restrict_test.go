package restrict

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"proxykit/internal/principal"
)

var (
	alice  = principal.New("alice", "ISI.EDU")
	bob    = principal.New("bob", "ISI.EDU")
	carol  = principal.New("carol", "MIT.EDU")
	fileSv = principal.New("file/sv1", "ISI.EDU")
	mailSv = principal.New("mail/sv1", "ISI.EDU")
	grpSv  = principal.New("groups", "ISI.EDU")
)

func baseCtx() *Context {
	return &Context{
		Server:           fileSv,
		Object:           "/etc/motd",
		Operation:        "read",
		ClientIdentities: []principal.ID{alice},
		VerifiedGroups:   map[principal.Global]bool{},
		Amounts:          map[string]int64{},
		Now:              time.Unix(1000, 0),
		Expires:          time.Unix(2000, 0),
		GrantorKeyID:     "grantor-key",
	}
}

func wantDenied(t *testing.T, err error, typ Type) {
	t.Helper()
	var de *DeniedError
	if !errors.As(err, &de) {
		t.Fatalf("got %v, want DeniedError", err)
	}
	if de.Restriction != typ {
		t.Fatalf("denied by %s, want %s", de.Restriction, typ)
	}
}

func TestGranteeCheck(t *testing.T) {
	tests := []struct {
		name    string
		r       Grantee
		clients []principal.ID
		ok      bool
	}{
		{"single named grantee present", Grantee{Principals: []principal.ID{alice}}, []principal.ID{alice}, true},
		{"grantee absent", Grantee{Principals: []principal.ID{alice}}, []principal.ID{bob}, false},
		{"no identities", Grantee{Principals: []principal.ID{alice}}, nil, false},
		{"one of several", Grantee{Principals: []principal.ID{alice, bob}}, []principal.ID{bob}, true},
		{"need two, have one", Grantee{Principals: []principal.ID{alice, bob}, Needed: 2}, []principal.ID{alice}, false},
		{"need two, have two", Grantee{Principals: []principal.ID{alice, bob}, Needed: 2}, []principal.ID{bob, alice}, true},
		{"needed zero treated as one", Grantee{Principals: []principal.ID{alice}, Needed: 0}, []principal.ID{alice}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ctx := baseCtx()
			ctx.ClientIdentities = tt.clients
			err := tt.r.Check(ctx)
			if tt.ok && err != nil {
				t.Fatalf("unexpected denial: %v", err)
			}
			if !tt.ok {
				wantDenied(t, err, TypeGrantee)
			}
		})
	}
}

func TestForUseByGroupCheck(t *testing.T) {
	staff := principal.NewGlobal(grpSv, "staff")
	admin := principal.NewGlobal(grpSv, "admin")
	tests := []struct {
		name     string
		r        ForUseByGroup
		verified []principal.Global
		ok       bool
	}{
		{"member", ForUseByGroup{Groups: []principal.Global{staff}}, []principal.Global{staff}, true},
		{"not member", ForUseByGroup{Groups: []principal.Global{staff}}, nil, false},
		{"separation of privilege needs both", ForUseByGroup{Groups: []principal.Global{staff, admin}, Needed: 2}, []principal.Global{staff}, false},
		{"separation of privilege satisfied", ForUseByGroup{Groups: []principal.Global{staff, admin}, Needed: 2}, []principal.Global{staff, admin}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ctx := baseCtx()
			for _, g := range tt.verified {
				ctx.VerifiedGroups[g] = true
			}
			err := tt.r.Check(ctx)
			if tt.ok != (err == nil) {
				t.Fatalf("ok=%v err=%v", tt.ok, err)
			}
			if err != nil {
				wantDenied(t, err, TypeForUseByGroup)
			}
		})
	}
}

func TestIssuedForCheck(t *testing.T) {
	r := IssuedFor{Servers: []principal.ID{fileSv}}
	if err := r.Check(baseCtx()); err != nil {
		t.Fatalf("listed server denied: %v", err)
	}
	ctx := baseCtx()
	ctx.Server = mailSv
	wantDenied(t, r.Check(ctx), TypeIssuedFor)
}

func TestQuotaCheck(t *testing.T) {
	r := Quota{Currency: "pages", Limit: 10}
	tests := []struct {
		req int64
		ok  bool
	}{{0, true}, {10, true}, {11, false}, {1 << 40, false}}
	for _, tt := range tests {
		ctx := baseCtx()
		ctx.Amounts["pages"] = tt.req
		err := r.Check(ctx)
		if tt.ok != (err == nil) {
			t.Fatalf("req=%d ok=%v err=%v", tt.req, tt.ok, err)
		}
	}
	// A request in a different currency is not limited by this quota.
	ctx := baseCtx()
	ctx.Amounts["dollars"] = 1000
	if err := r.Check(ctx); err != nil {
		t.Fatalf("other currency denied: %v", err)
	}
}

func TestAuthorizedCheck(t *testing.T) {
	r := Authorized{Entries: []AuthorizedEntry{
		{Object: "/etc/motd", Ops: []string{"read"}},
		{Object: "/tmp/scratch"}, // all ops
	}}
	tests := []struct {
		obj, op string
		ok      bool
	}{
		{"/etc/motd", "read", true},
		{"/etc/motd", "write", false},
		{"/tmp/scratch", "write", true},
		{"/tmp/scratch", "delete", true},
		{"/etc/passwd", "read", false},
	}
	for _, tt := range tests {
		ctx := baseCtx()
		ctx.Object, ctx.Operation = tt.obj, tt.op
		err := r.Check(ctx)
		if tt.ok != (err == nil) {
			t.Fatalf("%s %s: ok=%v err=%v", tt.op, tt.obj, tt.ok, err)
		}
	}
}

func TestGroupMembershipCheck(t *testing.T) {
	staff := principal.NewGlobal(grpSv, "staff")
	admin := principal.NewGlobal(grpSv, "admin")
	r := GroupMembership{Groups: []principal.Global{staff}}

	ctx := baseCtx()
	ctx.AssertedGroups = []principal.Global{staff}
	if err := r.Check(ctx); err != nil {
		t.Fatalf("granted membership denied: %v", err)
	}
	ctx.AssertedGroups = []principal.Global{admin}
	wantDenied(t, r.Check(ctx), TypeGroupMembership)
	ctx.AssertedGroups = []principal.Global{staff, admin}
	wantDenied(t, r.Check(ctx), TypeGroupMembership)
	ctx.AssertedGroups = nil
	if err := r.Check(ctx); err != nil {
		t.Fatalf("no assertion should pass: %v", err)
	}
}

type fakeRegistry struct {
	seen map[string]bool
	err  error
}

func (f *fakeRegistry) Accept(grantor, id string, _ time.Time) error {
	if f.err != nil {
		return f.err
	}
	key := grantor + "/" + id
	if f.seen[key] {
		return errors.New("duplicate")
	}
	if f.seen == nil {
		f.seen = map[string]bool{}
	}
	f.seen[key] = true
	return nil
}

func TestAcceptOnceCheck(t *testing.T) {
	r := AcceptOnce{ID: "check-42"}

	t.Run("no registry fails closed", func(t *testing.T) {
		wantDenied(t, r.Check(baseCtx()), TypeAcceptOnce)
	})

	t.Run("first accept ok, duplicate rejected", func(t *testing.T) {
		reg := &fakeRegistry{}
		ctx := baseCtx()
		ctx.AcceptOnce = reg
		if err := r.Check(ctx); err != nil {
			t.Fatalf("first: %v", err)
		}
		wantDenied(t, r.Check(ctx), TypeAcceptOnce)
	})

	t.Run("distinct grantors do not collide", func(t *testing.T) {
		reg := &fakeRegistry{}
		ctx1 := baseCtx()
		ctx1.AcceptOnce = reg
		ctx2 := baseCtx()
		ctx2.AcceptOnce = reg
		ctx2.GrantorKeyID = "other-grantor"
		if err := r.Check(ctx1); err != nil {
			t.Fatal(err)
		}
		if err := r.Check(ctx2); err != nil {
			t.Fatalf("other grantor rejected: %v", err)
		}
	})
}

func TestLimitCheck(t *testing.T) {
	inner := Set{Quota{Currency: "pages", Limit: 1}}
	r := Limit{Servers: []principal.ID{mailSv}, Restrictions: inner}

	// Not the named server: embedded restrictions ignored.
	ctx := baseCtx()
	ctx.Amounts["pages"] = 100
	if err := r.Check(ctx); err != nil {
		t.Fatalf("unlisted server enforced limit: %v", err)
	}
	// The named server enforces them.
	ctx.Server = mailSv
	wantDenied(t, r.Check(ctx), TypeQuota)
	ctx.Amounts["pages"] = 1
	if err := r.Check(ctx); err != nil {
		t.Fatalf("within limit denied: %v", err)
	}
}

func TestSetCheckConjunction(t *testing.T) {
	s := Set{
		IssuedFor{Servers: []principal.ID{fileSv}},
		Authorized{Entries: []AuthorizedEntry{{Object: "/etc/motd", Ops: []string{"read"}}}},
		Grantee{Principals: []principal.ID{alice}},
	}
	if err := s.Check(baseCtx()); err != nil {
		t.Fatalf("all-pass denied: %v", err)
	}
	ctx := baseCtx()
	ctx.Operation = "write"
	wantDenied(t, s.Check(ctx), TypeAuthorized)

	if err := Set(nil).Check(baseCtx()); err != nil {
		t.Fatalf("empty set denied: %v", err)
	}
}

func TestQuotaAccumulationIsMinimum(t *testing.T) {
	// Cascaded proxies each adding a quota: the effective limit is the
	// minimum because every restriction must pass.
	s := Set{
		Quota{Currency: "pages", Limit: 100},
		Quota{Currency: "pages", Limit: 10},
		Quota{Currency: "pages", Limit: 50},
	}
	ctx := baseCtx()
	ctx.Amounts["pages"] = 11
	wantDenied(t, s.Check(ctx), TypeQuota)
	ctx.Amounts["pages"] = 10
	if err := s.Check(ctx); err != nil {
		t.Fatal(err)
	}
	q := s.Quotas()
	if q["pages"] != 10 {
		t.Fatalf("Quotas() = %v", q)
	}
}

func TestHasGranteeAndGrantees(t *testing.T) {
	if (Set{Quota{Currency: "x", Limit: 1}}).HasGrantee(fileSv) {
		t.Fatal("quota-only set reported grantee")
	}
	s := Set{Grantee{Principals: []principal.ID{alice, bob}}}
	if !s.HasGrantee(fileSv) {
		t.Fatal("grantee not found")
	}
	gs := s.Grantees()
	if len(gs) != 2 {
		t.Fatalf("Grantees() = %v", gs)
	}

	// Grantee nested in a Limit applies only at the listed server.
	nested := Set{Limit{
		Servers:      []principal.ID{mailSv},
		Restrictions: Set{Grantee{Principals: []principal.ID{carol}}},
	}}
	if nested.HasGrantee(fileSv) {
		t.Fatal("limit-nested grantee leaked to other server")
	}
	if !nested.HasGrantee(mailSv) {
		t.Fatal("limit-nested grantee not seen at named server")
	}
}

func TestMergeIsAdditive(t *testing.T) {
	s1 := Set{Quota{Currency: "p", Limit: 5}}
	s2 := Set{IssuedFor{Servers: []principal.ID{fileSv}}}
	m := s1.Merge(s2)
	if len(m) != 2 {
		t.Fatalf("len = %d", len(m))
	}
	if len(s1) != 1 || len(s2) != 1 {
		t.Fatal("merge mutated inputs")
	}
}

func TestPropagate(t *testing.T) {
	limitMail := Limit{Servers: []principal.ID{mailSv}, Restrictions: Set{Quota{Currency: "p", Limit: 1}}}
	limitFile := Limit{Servers: []principal.ID{fileSv}, Restrictions: Set{Quota{Currency: "p", Limit: 2}}}
	q := Quota{Currency: "d", Limit: 9}
	s := Set{limitMail, limitFile, q}

	t.Run("unknown audience keeps everything", func(t *testing.T) {
		got := s.Propagate(nil)
		if len(got) != 3 {
			t.Fatalf("len = %d", len(got))
		}
	})
	t.Run("audience excludes irrelevant limits", func(t *testing.T) {
		got := s.Propagate([]principal.ID{fileSv})
		if len(got) != 2 {
			t.Fatalf("len = %d: %s", len(got), got)
		}
		if got[0].Type() != TypeLimit || got[1].Type() != TypeQuota {
			t.Fatalf("kept %s", got)
		}
	})
	t.Run("non-limit restrictions always propagate", func(t *testing.T) {
		got := s.Propagate([]principal.ID{principal.New("other", "R")})
		if len(got) != 1 {
			t.Fatalf("len = %d", len(got))
		}
		if got[0].Type() != TypeQuota {
			t.Fatalf("kept %s", got[0])
		}
	})
}

func TestSetString(t *testing.T) {
	if Set(nil).String() != "(unrestricted)" {
		t.Fatal(Set(nil).String())
	}
	s := Set{Quota{Currency: "pages", Limit: 3}, AcceptOnce{ID: "n1"}}
	str := s.String()
	for _, want := range []string{"quota(3 pages)", "accept-once(n1)", " & "} {
		if !strings.Contains(str, want) {
			t.Fatalf("String() = %q missing %q", str, want)
		}
	}
}

func TestTypeString(t *testing.T) {
	for typ, want := range map[Type]string{
		TypeGrantee:         "grantee",
		TypeForUseByGroup:   "for-use-by-group",
		TypeIssuedFor:       "issued-for",
		TypeQuota:           "quota",
		TypeAuthorized:      "authorized",
		TypeGroupMembership: "group-membership",
		TypeAcceptOnce:      "accept-once",
		TypeLimit:           "limit-restriction",
		Type(200):           "restriction(200)",
	} {
		if typ.String() != want {
			t.Fatalf("%d.String() = %q, want %q", typ, typ.String(), want)
		}
	}
}

func TestRestrictionStrings(t *testing.T) {
	// Smoke-test every String for panics and basic content.
	rs := Set{
		Grantee{Principals: []principal.ID{alice}, Needed: 2},
		ForUseByGroup{Groups: []principal.Global{principal.NewGlobal(grpSv, "g")}},
		IssuedFor{Servers: []principal.ID{fileSv}},
		Quota{Currency: "c", Limit: 7},
		Authorized{Entries: []AuthorizedEntry{{Object: "o"}, {Object: "p", Ops: []string{"r", "w"}}}},
		GroupMembership{Groups: []principal.Global{principal.NewGlobal(grpSv, "g")}},
		AcceptOnce{ID: "i"},
		Limit{Servers: []principal.ID{mailSv}, Restrictions: Set{Quota{Currency: "c", Limit: 1}}},
	}
	for _, r := range rs {
		if r.String() == "" {
			t.Fatalf("%s has empty String", r.Type())
		}
		if !strings.Contains(r.String(), "") { // always true; exercises formatting
			continue
		}
	}
	if got := fmt.Sprint(rs[4]); !strings.Contains(got, "o:*") || !strings.Contains(got, "p:r|w") {
		t.Fatalf("authorized string = %q", got)
	}
}

func TestDeniedErrorMessage(t *testing.T) {
	err := denied(TypeQuota, "over by %d", 5)
	if !strings.Contains(err.Error(), "quota") || !strings.Contains(err.Error(), "over by 5") {
		t.Fatal(err.Error())
	}
}

func TestDepositToCheck(t *testing.T) {
	acct := principal.NewGlobal(principal.New("bank", "ISI.EDU"), "alice")
	other := principal.NewGlobal(principal.New("bank", "ISI.EDU"), "mallory")
	r := DepositTo{Account: acct}

	ctx := baseCtx()
	ctx.DepositAccount = acct
	if err := r.Check(ctx); err != nil {
		t.Fatalf("matching deposit denied: %v", err)
	}
	ctx.DepositAccount = other
	wantDenied(t, r.Check(ctx), TypeDepositTo)
	// No deposit at all also fails: the restriction demands one.
	ctx.DepositAccount = principal.Global{}
	wantDenied(t, r.Check(ctx), TypeDepositTo)

	if r.String() != "deposit-to(alice%bank@ISI.EDU)" {
		t.Fatal(r.String())
	}
	if TypeDepositTo.String() != "deposit-to" {
		t.Fatal(TypeDepositTo.String())
	}
}

func TestDepositToRoundTrip(t *testing.T) {
	acct := principal.NewGlobal(principal.New("bank", "ISI.EDU"), "alice")
	s := Set{DepositTo{Account: acct}}
	got, err := Unmarshal(s.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != s.String() {
		t.Fatalf("round trip: %s != %s", got, s)
	}
}
