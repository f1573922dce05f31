package soak

// Scenario actors: the individual operations a simulated principal can
// perform against the topology, which the storm's op table (soak.go)
// composes with its own scheduling, amounts, and trace contexts.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"time"

	"proxykit/internal/accounting"
	"proxykit/internal/kerberos"
	"proxykit/internal/principal"
	"proxykit/internal/proxy"
	"proxykit/internal/svc"
)

// Authorize presents principal p's cascaded authorization proxy to the
// end-server over TCP (method end.request).
func (t *topology) Authorize(p int) error {
	s := t.sims[p%len(t.sims)]
	_, err := s.end.Request(svc.RequestParams{
		Object: "/shared/doc", Op: "read",
		Proxies: []*proxy.Presentation{s.authz.PresentDelegate()},
	})
	return err
}

// Transfer moves amount dollars from principal p to the next principal
// at the main bank (method acct.transfer).
func (t *topology) Transfer(p int, amount int64) error {
	s := t.sims[p%len(t.sims)]
	to := t.sims[(p+1)%len(t.sims)]
	if to == s {
		return nil // a single principal cannot transfer to itself
	}
	return s.bank.Transfer(s.acct, to.acct, "dollars", amount)
}

// Deposit writes a same-bank check from principal p to the next
// principal, who endorses and deposits it over TCP (the §7.7 instrument
// flow with no clearing hop).
func (t *topology) Deposit(p int, amount int64) error {
	payor := t.sims[p%len(t.sims)]
	payee := t.sims[(p+1)%len(t.sims)]
	check, err := accounting.WriteCheck(accounting.WriteCheckParams{
		Payor: payor.ident, Bank: t.bank.ID, Account: payor.acct,
		Payee: payee.ident.ID, Currency: "dollars", Amount: amount,
		Lifetime: time.Hour,
	})
	if err != nil {
		return err
	}
	endorsed, err := check.Endorse(payee.ident, t.bank.ID, t.bank.ID, t.bank.Global(payee.acct), true, nil)
	if err != nil {
		return err
	}
	_, err = payee.bank.DepositCheck(endorsed, payee.acct)
	return err
}

// Gateway authorizes through the HTTP edge with principal p's bearer
// token (route "POST /v1/authorize" → end.request downstream).
func (t *topology) Gateway(p int) error {
	s := t.sims[p%len(t.sims)]
	req, err := http.NewRequest("POST", t.gatewayURL+"/v1/authorize",
		bytes.NewReader([]byte(`{"object":"/shared/doc","op":"read"}`)))
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+s.token)
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("gateway authorize: %s", resp.Status)
	}
	return nil
}

// Login performs the full Kerberos exchange for principal p: password
// AS login for a TGT, then a TGS request for a service ticket to the
// end-server.
func (t *topology) Login(p int) error {
	s := t.sims[p%len(t.sims)]
	c, err := kerberos.NewClientWithPassword(s.ident.ID, s.password, nil)
	if err != nil {
		return err
	}
	creds, err := c.Login(t.kdcC, t.kdc.TGS(), 10*time.Minute, nil)
	if err != nil {
		return fmt.Errorf("AS login: %w", err)
	}
	if _, err := c.RequestTicket(t.kdcC, creds, t.fileID, 10*time.Minute, nil); err != nil {
		return fmt.Errorf("TGS request: %w", err)
	}
	return nil
}

// ClearingDeposit runs the Fig. 5 cross-bank flow for principal p: a
// check drawn on the principal's drawee-bank account, endorsed for
// deposit to its collector-bank account, presented at the collector —
// which clears it through the inter-bank hop. Returns the check number
// so callers can track it through journals.
func (t *topology) ClearingDeposit(ctx context.Context, p int, amount int64) (string, error) {
	s := t.sims[p%len(t.sims)]
	check, err := accounting.WriteCheck(accounting.WriteCheckParams{
		Payor: s.ident, Bank: t.bank2.ID, Account: s.acct2,
		Payee: s.ident.ID, Currency: "dollars", Amount: amount,
		Lifetime: time.Hour,
	})
	if err != nil {
		return "", err
	}
	return check.Number, t.presentAtCollector(ctx, s, check)
}

// CertifiedDeposit is ClearingDeposit with a certification hold first:
// the drawee certifies the check (placing a hold on the payor account),
// then the certified check clears cross-bank, consuming the hold.
func (t *topology) CertifiedDeposit(ctx context.Context, p int, amount int64) (string, error) {
	s := t.sims[p%len(t.sims)]
	check, err := accounting.WriteCheck(accounting.WriteCheckParams{
		Payor: s.ident, Bank: t.bank2.ID, Account: s.acct2,
		Payee: s.ident.ID, Currency: "dollars", Amount: amount,
		Lifetime: time.Hour,
	})
	if err != nil {
		return "", err
	}
	if _, err := t.bank2.CertifyCtx(ctx, s.acct2, []principal.ID{s.ident.ID}, check); err != nil {
		return "", fmt.Errorf("certify: %w", err)
	}
	return check.Number, t.presentAtCollector(ctx, s, check)
}

// presentAtCollector endorses a drawee-bank check to the principal's
// collector-bank account and presents it there in-process, so the
// collector's clearing hop (with its seeded fault injector) runs under
// the caller's trace context.
func (t *topology) presentAtCollector(ctx context.Context, s *sim, check *accounting.Check) error {
	endorsed, err := check.Endorse(s.ident, t.bank.ID, t.bank.ID, t.bank.Global(s.acct), true, nil)
	if err != nil {
		return err
	}
	_, err = t.bank.DepositCheckCtx(ctx, endorsed, []principal.ID{s.ident.ID}, s.acct)
	return err
}

// ChurnToggle flips principal p's membership in its churn group and
// verifies the authorization cascade tracks the change: after joining,
// a fresh group proxy → authz proxy → end-server request for /churn/doc
// must succeed; after leaving, the group grant must be refused.
func (t *topology) ChurnToggle(p int) error {
	p = p % len(t.sims)
	s := t.sims[p]
	g := churnGroupName(p % t.churn)
	t.churnMu[p].Lock()
	defer t.churnMu[p].Unlock()

	member, err := t.groupSrv.IsMember(g, s.ident.ID, nil)
	if err != nil {
		return err
	}
	gc := svc.NewGroupClient(t.groupC, s.ident, nil)
	if member {
		t.groupSrv.RemoveMember(g, s.ident.ID)
		if _, err := gc.Grant(svc.GroupGrantParams{Groups: []string{g}, Lifetime: time.Minute}); err == nil {
			return fmt.Errorf("churn %s: grant succeeded after removal from %s", s.acct, g)
		}
		return nil
	}
	t.groupSrv.AddMember(g, s.ident.ID)
	gp, err := gc.Grant(svc.GroupGrantParams{Groups: []string{g}, Lifetime: time.Minute, Delegate: true})
	if err != nil {
		return fmt.Errorf("churn %s: grant refused after joining %s: %w", s.acct, g, err)
	}
	ap, err := svc.NewAuthzClient(t.authzC, s.ident, nil).Grant(svc.GrantParams{
		EndServer: t.fileID, Lifetime: time.Minute, Delegate: true,
		GroupProxies: []*proxy.Presentation{gp.PresentDelegate()},
	})
	if err != nil {
		return fmt.Errorf("churn %s: authz grant via %s: %w", s.acct, g, err)
	}
	if _, err := s.end.Request(svc.RequestParams{
		Object: "/churn/doc", Op: "read",
		Proxies: []*proxy.Presentation{ap.PresentDelegate()},
	}); err != nil {
		return fmt.Errorf("churn %s: end request via %s: %w", s.acct, g, err)
	}
	return nil
}
