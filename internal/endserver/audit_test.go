package endserver

import (
	"testing"
	"time"

	"proxykit/internal/acl"
	"proxykit/internal/audit"
	"proxykit/internal/principal"
	"proxykit/internal/proxy"
	"proxykit/internal/restrict"
)

func TestAuditLogRecordsDecisions(t *testing.T) {
	w := newWorld(t)
	log := audit.NewLog(16)
	w.srv.SetAuditLog(log)
	w.srv.SetACL(w.motd, acl.New(acl.PrincipalEntry(alice, "read")))

	// A granted direct request.
	if _, err := w.srv.Authorize(&Request{Object: w.motd, Op: "read", Identities: []principal.ID{alice}}); err != nil {
		t.Fatal(err)
	}
	// A denied request.
	if _, err := w.srv.Authorize(&Request{Object: w.motd, Op: "write", Identities: []principal.ID{alice}}); err == nil {
		t.Fatal("expected denial")
	}
	// A proxy-conveyed request with a delegation trail.
	del := w.grant(alice, restrict.Set{restrict.Grantee{Principals: []principal.ID{bob}}})
	del2, err := del.CascadeDelegate(bob, w.ids[bob].Signer(), proxy.CascadeParams{
		Added:    restrict.Set{restrict.Grantee{Principals: []principal.ID{host1}}},
		Lifetime: time.Hour,
		Mode:     proxy.ModePublicKey,
		Clock:    w.clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.srv.Authorize(&Request{
		Object: w.motd, Op: "read",
		Identities: []principal.ID{bob, host1},
		Proxies:    []*proxy.Presentation{del2.PresentDelegate()},
	}); err != nil {
		t.Fatal(err)
	}

	recs := log.Records()
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0].Outcome != audit.OutcomeGranted || !recs[0].Grantor.IsZero() {
		t.Fatalf("rec0 = %+v", recs[0])
	}
	if recs[1].Outcome != audit.OutcomeDenied || recs[1].Reason == "" {
		t.Fatalf("rec1 = %+v", recs[1])
	}
	if recs[2].Grantor != alice || len(recs[2].Trail) != 1 || recs[2].Trail[0] != bob {
		t.Fatalf("rec2 = %+v", recs[2])
	}
}
