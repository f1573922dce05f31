package accounting

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"time"

	"proxykit/internal/acl"
	"proxykit/internal/audit"
	"proxykit/internal/faultpoint"
	"proxykit/internal/obs"
	"proxykit/internal/principal"
	"proxykit/internal/proxy"
	"proxykit/internal/restrict"
	"proxykit/internal/transport"
)

// HopMethod is the fault-injection and retry-metric label for the
// inter-bank clearing hop (the Fig. 5 endorsement forward).
const HopMethod = "acct.clearing-hop"

// clearingAccount names the local account holding a collector bank's
// cleared funds at this bank.
func clearingAccount(collector principal.ID) string {
	return "clearing:" + collector.String()
}

// Receipt reports the outcome of a deposit.
type Receipt struct {
	// Number is the check number.
	Number string
	// Currency and Amount transferred.
	Currency string
	Amount   int64
	// Collected reports whether funds are final (true) or awaiting
	// clearing (never false on success in the synchronous model, but
	// recorded for the daemon version).
	Collected bool
	// Hops is the number of banks that processed the check, including
	// this one (Fig. 5: same-bank = 1, one endorsement step = 2, ...).
	Hops int
}

// DepositCheck deposits a check into a local account. presenters are
// the authenticated identities of the depositing party. If the check is
// drawn on this bank it is redeemed immediately; otherwise the funds are
// marked uncollected, the bank endorses the check onward ("the payee
// grants its own accounting server a cascaded proxy (endorsement) for
// the check allowing the accounting server to collect the resources on
// its behalf. Subsequent accounting servers repeat the process until the
// payor's accounting server is reached"), and on success the funds
// become collected.
func (s *Server) DepositCheck(c *Check, presenters []principal.ID, creditAccount string) (*Receipt, error) {
	return s.DepositCheckCtx(context.Background(), c, presenters, creditAccount)
}

// DepositCheckCtx is DepositCheck with a request context. The context's
// trace ID is stamped onto every audit record the deposit produces —
// including the records written by downstream banks during clearing, so
// a cleared check can be reconstructed hop-by-hop across journals.
func (s *Server) DepositCheckCtx(ctx context.Context, c *Check, presenters []principal.ID, creditAccount string) (*Receipt, error) {
	r, v, err := s.depositCheck(ctx, c, presenters, creditAccount)
	switch {
	case err == nil:
		mDeposits.With("ok").Inc()
		mClearingHops.Observe(float64(r.Hops))
	case errors.Is(err, ErrDuplicateCheck):
		mDeposits.With("duplicate").Inc()
	default:
		mDeposits.With("error").Inc()
	}
	s.auditDeposit(ctx, c, presenters, creditAccount, r, v, err)
	return r, err
}

// auditDeposit seals the deposit decision (and, for duplicate-number
// refusals, a dedicated accept-once record) into the journal.
func (s *Server) auditDeposit(ctx context.Context, c *Check, presenters []principal.ID, creditAccount string, r *Receipt, v *proxy.Verified, err error) {
	rec := audit.Record{
		Kind:       audit.KindDeposit,
		TraceID:    obs.TraceIDFrom(ctx),
		Presenters: presenters,
		Op:         OpCredit,
		Outcome:    audit.OutcomeGranted,
		Detail:     map[string]string{"credit": creditAccount},
	}
	if c != nil {
		rec.Object = debitObject(c.Account)
		rec.Detail["number"] = c.Number
		rec.Detail["bank"] = c.Bank.String()
		rec.Detail["currency"] = c.Currency
		rec.Detail["amount"] = strconv.FormatInt(c.Amount, 10)
	}
	if v != nil {
		// The check's signer and the endorsement cascade: the paper's
		// delegate-proxy audit trail (§3.4) applied to instruments.
		rec.Grantor = v.Grantor
		rec.Trail = v.Trail
	}
	if r != nil {
		rec.Detail["hops"] = strconv.Itoa(r.Hops)
	}
	if err != nil {
		rec.Outcome = audit.OutcomeDenied
		rec.Reason = err.Error()
		if errors.Is(err, ErrDuplicateCheck) {
			dup := rec
			dup.Kind = audit.KindAcceptOnceReject
			s.emit(dup)
		}
	}
	s.emit(rec)
}

func (s *Server) depositCheck(ctx context.Context, c *Check, presenters []principal.ID, creditAccount string) (*Receipt, *proxy.Verified, error) {
	if c == nil || c.Proxy == nil {
		return nil, nil, fmt.Errorf("%w: nil check", ErrBadCheck)
	}
	// Validate the chain's integrity and signatures regardless of which
	// bank we are.
	v, err := s.env.VerifyChain(c.Proxy.Certs)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadCheck, err)
	}
	number, ok := checkNumber(v.Restrictions)
	if !ok {
		return nil, v, fmt.Errorf("%w: no check number", ErrBadCheck)
	}

	// Honor any deposit instruction addressed to this bank.
	if target, ok := depositInstructionFor(v.Restrictions, s.ID); ok {
		if target != s.Global(creditAccount) {
			return nil, v, fmt.Errorf("%w: endorsement directs proceeds to %s, not %s",
				ErrBadCheck, target, s.Global(creditAccount))
		}
	}

	// A bearer check (no grantee anywhere in the chain) is payable to
	// whoever holds the proxy key — so possession must be proven, or a
	// copied certificate chain would spend like cash.
	if len(v.Restrictions.Grantees()) == 0 {
		if c.Proxy.Key == nil {
			return nil, v, fmt.Errorf("%w: bearer check without proxy key", ErrBadCheck)
		}
		ch, err := proxy.NewChallenge()
		if err != nil {
			return nil, v, err
		}
		proof, err := c.Proxy.Prove(ch, s.ID)
		if err != nil {
			return nil, v, fmt.Errorf("%w: %v", ErrBadCheck, err)
		}
		if err := s.env.VerifyPossession(v, c.Proxy.Certs[len(c.Proxy.Certs)-1], ch, proof); err != nil {
			return nil, v, fmt.Errorf("%w: %v", ErrBadCheck, err)
		}
	}

	// Each bank accepts a given check number once (§7.7). If the
	// deposit ultimately fails (e.g. insufficient funds), the number is
	// forgotten so the check can be re-presented once the problem is
	// fixed — a bounced check is returned, not voided.
	if err := s.registry.Accept(v.GrantorKeyID, number, v.Expires); err != nil {
		mAcceptOnceRejections.Inc()
		return nil, v, fmt.Errorf("%w: %v", ErrDuplicateCheck, err)
	}
	var receipt *Receipt
	var depErr error
	if c.Bank == s.ID {
		receipt, depErr = s.redeemLocal(c, v, presenters, creditAccount)
	} else {
		receipt, depErr = s.collectRemote(ctx, c, v, creditAccount)
	}
	if depErr != nil {
		s.registry.Forget(v.GrantorKeyID, number)
		return nil, v, depErr
	}
	return receipt, v, nil
}

// checkNumber extracts the accept-once identifier.
func checkNumber(rs restrict.Set) (string, bool) {
	for _, r := range rs {
		if ao, ok := r.(restrict.AcceptOnce); ok {
			return ao.ID, true
		}
	}
	return "", false
}

// redeemLocal performs the final transfer at the drawee bank.
func (s *Server) redeemLocal(c *Check, v *proxy.Verified, presenters []principal.ID, creditAccount string) (*Receipt, error) {
	payor, ok := s.lookup(c.Account)
	if !ok {
		return nil, fmt.Errorf("%w: payor %s", ErrNoAccount, c.Account)
	}
	if _, ok := s.lookup(creditAccount); !ok {
		return nil, fmt.Errorf("%w: credit %s", ErrNoAccount, creditAccount)
	}
	// Both stripes for the whole validate-then-commit: the hold/balance
	// check and the opRedeem commit must be one critical section.
	unlock := s.lockPair(c.Account, creditAccount)
	defer unlock()

	// Evaluate the check's accumulated restrictions: the drawee bank is
	// the end-server the check was issued for. The bank itself counts
	// among the client identities — it is the final holder processing
	// the instrument.
	ctx := &restrict.Context{
		Server:           s.ID,
		Object:           debitObject(c.Account),
		Operation:        OpDebit,
		ClientIdentities: append(append([]principal.ID{}, presenters...), s.ID),
		Amounts:          map[string]int64{c.Currency: c.Amount},
		DepositAccount:   s.Global(creditAccount),
		Now:              s.clk.Now(),
		AcceptOnce:       nopRegistry{}, // number already consumed above
	}
	if err := v.Authorize(ctx); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheck, err)
	}

	// The grantor must hold debit rights on the payor account.
	if _, err := payor.acl.Match(acl.Query{Op: OpDebit, Identities: []principal.ID{v.Grantor}}); err != nil {
		return nil, fmt.Errorf("%w: grantor %s cannot debit %s", ErrDeniedByACL, v.Grantor, c.Account)
	}

	// Certified check? It pays from the hold; otherwise the balance
	// must cover the amount. Validation happens here, the mutation is
	// one opRedeem record (accept-once entry + debit/hold-consume +
	// credit) committed through the ledger.
	if h, ok := payor.holds[c.Number]; ok {
		if h.currency != c.Currency || h.amount < c.Amount {
			return nil, fmt.Errorf("%w: hold mismatch for %s", ErrBadCheck, c.Number)
		}
	} else if payor.balances[c.Currency] < c.Amount {
		return nil, fmt.Errorf("%w: account %s has %d %s, check for %d",
			ErrInsufficientFunds, c.Account, payor.balances[c.Currency], c.Currency, c.Amount)
	}
	if err := s.commitOp(&op{
		kind: opRedeem, time: s.clk.Now(),
		acct: c.Account, to: creditAccount,
		currency: c.Currency, amount: c.Amount,
		number: c.Number, grantorKey: v.GrantorKeyID, expires: v.Expires,
	}); err != nil {
		return nil, err
	}
	return &Receipt{Number: c.Number, Currency: c.Currency, Amount: c.Amount, Collected: true, Hops: 1}, nil
}

// collectRemote credits the deposit as uncollected, endorses the check
// to the next bank toward the drawee, and finalizes on success. The
// context (and with it the originating trace ID) travels to the next
// bank, so every journal along the clearing path shares one trace.
func (s *Server) collectRemote(ctx context.Context, c *Check, v *proxy.Verified, creditAccount string) (*Receipt, error) {
	if _, ok := s.lookup(creditAccount); !ok {
		return nil, fmt.Errorf("%w: credit %s", ErrNoAccount, creditAccount)
	}
	s.cfgMu.Lock()
	next := s.peers[c.Bank]
	if next == nil {
		next = s.nextHop
	}
	s.cfgMu.Unlock()
	if next == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoRoute, c.Bank)
	}
	// Mark the deposit uncollected while clearing is in flight. The
	// pending record (accept-once entry + uncollected credit) is durable
	// before the endorsement leaves this bank: a crash mid-clearing
	// restarts with the check number accepted and the funds visibly
	// in-doubt, never silently re-creditable.
	unlock := s.lockAccount(creditAccount)
	err := s.commitOp(&op{
		kind: opPending, time: s.clk.Now(), to: creditAccount,
		currency: c.Currency, amount: c.Amount,
		number: c.Number, grantorKey: v.GrantorKeyID, expires: v.Expires,
	})
	unlock()
	if err != nil {
		return nil, err
	}
	s.cfgMu.Lock()
	s.ForwardedChecks++
	s.cfgMu.Unlock()
	mClearingForwards.Inc()

	// Endorse onward: the next bank becomes the holder, and must credit
	// this bank's clearing account there.
	endorsed, err := c.Endorse(s.identity, next.ID, next.ID, next.Global(clearingAccount(s.ID)), true, s.clk)
	if err != nil {
		s.rollbackUncollected(creditAccount, c, v)
		return nil, err
	}
	// Ensure the clearing account exists at the next bank.
	if err := next.ensureAccount(clearingAccount(s.ID), s.ID); err != nil {
		s.rollbackUncollected(creditAccount, c, v)
		return nil, err
	}
	receipt, attempts, err := s.deliverHop(ctx, next, endorsed)
	s.auditClearingHop(ctx, c, next.ID, receipt, attempts, err)
	if err != nil {
		// Retry budget exhausted (or a hard refusal): roll the
		// uncollected credit back. The check number is Forgotten
		// upstream, so the depositor can re-present once the network
		// heals.
		mClearingAbandoned.Inc()
		s.rollbackUncollected(creditAccount, c, v)
		return nil, fmt.Errorf("accounting: clearing via %s: %w", next.ID, err)
	}

	// Funds collected: convert uncollected to final balance.
	unlock = s.lockAccount(creditAccount)
	cerr := s.commitOp(&op{
		kind: opCollected, time: s.clk.Now(), to: creditAccount,
		currency: c.Currency, amount: c.Amount, number: c.Number,
	})
	unlock()
	if cerr != nil {
		return nil, cerr
	}
	return &Receipt{
		Number:    c.Number,
		Currency:  c.Currency,
		Amount:    c.Amount,
		Collected: true,
		Hops:      receipt.Hops + 1,
	}, nil
}

// deliverHop delivers the endorsed check to the next bank under the
// server's hop retry policy and fault injector. It reports the receipt,
// the number of delivery attempts made, and the final error.
//
// The exactly-once argument: every delivery of the same endorsed check
// carries the same check number, and the next bank accepts a number at
// most once (§7.7). If an earlier delivery landed but its
// acknowledgment was lost, the redelivery is rejected as a duplicate —
// which is precisely the proof that the funds were credited, so the
// rejection is converted into a success ("duplicate ack"). A delivery
// that failed for real Forgets the number at the next bank, so a later
// attempt is fresh.
func (s *Server) deliverHop(ctx context.Context, next *Server, endorsed *Check) (*Receipt, int, error) {
	s.cfgMu.Lock()
	pol, inj := s.hopRetry, s.hopInj
	s.cfgMu.Unlock()
	pol.Retryable = retryableHopError

	deliver := func() (*Receipt, error) {
		if inj != nil {
			d := inj.Decide(HopMethod)
			if d.Delay > 0 {
				time.Sleep(d.Delay)
			}
			switch d.Action {
			case faultpoint.ActPartition, faultpoint.ActDropRequest:
				// The endorsement never reaches the next bank.
				return nil, &faultpoint.Error{Action: d.Action, Method: HopMethod}
			case faultpoint.ActError:
				return nil, &transport.RemoteError{Method: HopMethod, Msg: faultpoint.RemoteErrMsg}
			case faultpoint.ActDropResponse:
				// Delivered and processed; the receipt is lost.
				_, _ = next.DepositCheckCtx(ctx, endorsed, []principal.ID{s.ID}, clearingAccount(s.ID))
				return nil, &faultpoint.Error{Action: d.Action, Method: HopMethod}
			case faultpoint.ActDuplicate:
				// Delivered twice; the second lands on accept-once.
				r, err := next.DepositCheckCtx(ctx, endorsed, []principal.ID{s.ID}, clearingAccount(s.ID))
				_, _ = next.DepositCheckCtx(ctx, endorsed, []principal.ID{s.ID}, clearingAccount(s.ID))
				return r, err
			}
		}
		return next.DepositCheckCtx(ctx, endorsed, []principal.ID{s.ID}, clearingAccount(s.ID))
	}

	var receipt *Receipt
	attempts := 0
	err := pol.Do(HopMethod, func(attempt int) error {
		attempts = attempt + 1
		if attempt > 0 {
			mClearingRetries.Inc()
		}
		r, derr := deliver()
		if derr != nil && attempt > 0 && errors.Is(derr, ErrDuplicateCheck) {
			// Lost ack from an earlier attempt: the next bank's
			// accept-once registry proves the deposit landed. Hops
			// beyond the next bank are unknown on this path, so the
			// receipt reports the minimum.
			mClearingDupAcks.Inc()
			receipt = &Receipt{
				Number:    endorsed.Number,
				Currency:  endorsed.Currency,
				Amount:    endorsed.Amount,
				Collected: true,
				Hops:      1,
			}
			return nil
		}
		if derr != nil {
			return derr
		}
		receipt = r
		return nil
	})
	if err != nil {
		return nil, attempts, err
	}
	return receipt, attempts, nil
}

// retryableHopError classifies hop failures: transport-shaped faults
// (injected drops and partitions, network timeouts, closed
// connections) are worth redelivering; accounting refusals — no such
// account, insufficient funds, a bad chain — are answers, not losses.
func retryableHopError(err error) bool {
	var fe *faultpoint.Error
	var nerr net.Error
	switch {
	case errors.As(err, &fe):
		return true
	case errors.As(err, &nerr) && nerr.Timeout():
		return true
	case errors.Is(err, transport.ErrClosed):
		return true
	}
	return false
}

// auditClearingHop seals the endorsement-forward record: this bank
// endorsed the check to next for collection (Fig. 5), in attempts
// deliveries.
func (s *Server) auditClearingHop(ctx context.Context, c *Check, next principal.ID, receipt *Receipt, attempts int, err error) {
	rec := audit.Record{
		Kind:    audit.KindClearingHop,
		TraceID: obs.TraceIDFrom(ctx),
		Object:  debitObject(c.Account),
		Op:      "endorse",
		Outcome: audit.OutcomeGranted,
		Detail: map[string]string{
			"number":    c.Number,
			"bank":      c.Bank.String(),
			"next":      next.String(),
			"depositTo": clearingAccount(s.ID),
			"currency":  c.Currency,
			"amount":    strconv.FormatInt(c.Amount, 10),
		},
	}
	if attempts > 1 {
		rec.Detail["attempts"] = strconv.Itoa(attempts)
	}
	if receipt != nil {
		rec.Detail["hops"] = strconv.Itoa(receipt.Hops)
	}
	if err != nil {
		rec.Outcome = audit.OutcomeDenied
		rec.Reason = err.Error()
	}
	s.emit(rec)
}

// rollbackUncollected undoes a pending deposit: the uncollected credit
// comes back out and the accept-once entry is released, durably, so a
// restarted bank lets the depositor re-present the bounced check.
func (s *Server) rollbackUncollected(name string, c *Check, v *proxy.Verified) {
	if _, ok := s.lookup(name); !ok {
		return
	}
	unlock := s.lockAccount(name)
	defer unlock()
	_ = s.commitOp(&op{
		kind: opRollback, to: name,
		currency: c.Currency, amount: c.Amount,
		number: c.Number, grantorKey: v.GrantorKeyID,
	})
}

// ensureAccount creates an account if absent (used for clearing
// accounts).
func (s *Server) ensureAccount(name string, owner principal.ID) error {
	s.createMu.Lock()
	defer s.createMu.Unlock()
	if _, ok := s.lookup(name); ok {
		return nil
	}
	unlock := s.lockAccount(name)
	defer unlock()
	return s.commitOp(&op{kind: opCreate, acct: name, owner: owner})
}

// nopRegistry satisfies accept-once checks for numbers the bank has
// already consumed in DepositCheck.
type nopRegistry struct{}

// Accept implements restrict.AcceptOnceRegistry.
func (nopRegistry) Accept(string, string, time.Time) error { return nil }

// Certify places a hold for a certified check (§4): "The accounting
// server places a hold on the resources and returns an authorization
// proxy to the client certifying that the client has sufficient
// resources to cover the check." requesters need debit rights.
func (s *Server) Certify(accountName string, requesters []principal.ID, c *Check) (*CertifiedCheck, error) {
	return s.CertifyCtx(context.Background(), accountName, requesters, c)
}

// CertifyCtx is Certify with a request context; the context's trace ID
// is stamped onto the audit record.
func (s *Server) CertifyCtx(ctx context.Context, accountName string, requesters []principal.ID, c *Check) (cc *CertifiedCheck, err error) {
	defer func() {
		rec := audit.Record{
			Kind:       audit.KindHold,
			TraceID:    obs.TraceIDFrom(ctx),
			Presenters: requesters,
			Object:     debitObject(accountName),
			Op:         "certify",
			Outcome:    audit.OutcomeGranted,
			Detail: map[string]string{
				"number":   c.Number,
				"currency": c.Currency,
				"amount":   strconv.FormatInt(c.Amount, 10),
			},
		}
		if err != nil {
			rec.Outcome = audit.OutcomeDenied
			rec.Reason = err.Error()
		}
		s.emit(rec)
	}()
	if c.Bank != s.ID {
		return nil, fmt.Errorf("%w: check drawn on %s", ErrBadCheck, c.Bank)
	}
	if c.Account != accountName {
		return nil, fmt.Errorf("%w: check drawn on account %s", ErrBadCheck, c.Account)
	}
	a, ok := s.lookup(accountName)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoAccount, accountName)
	}
	if _, err := a.acl.Match(acl.Query{Op: OpDebit, Identities: requesters}); err != nil {
		return nil, fmt.Errorf("%w: debit %s", ErrDeniedByACL, accountName)
	}
	unlock := s.lockAccount(accountName)
	if _, ok := a.holds[c.Number]; ok {
		unlock()
		return nil, fmt.Errorf("%w: %s", ErrHoldExists, c.Number)
	}
	if a.balances[c.Currency] < c.Amount {
		bal := a.balances[c.Currency]
		unlock()
		return nil, fmt.Errorf("%w: %s has %d %s", ErrInsufficientFunds, accountName, bal, c.Currency)
	}
	expires := c.Proxy.Expires()
	if err := s.commitOp(&op{
		kind: opHold, time: s.clk.Now(), acct: accountName,
		currency: c.Currency, amount: c.Amount,
		number: c.Number, expires: expires,
	}); err != nil {
		unlock()
		return nil, err
	}
	mHoldsPlaced.Inc()
	unlock()

	// The certification proxy: the bank asserts funds are held.
	lifetime := expires.Sub(s.clk.Now())
	px, err := s.issueCertification(c, lifetime)
	if err != nil {
		// Undo the hold on failure.
		undo := s.lockAccount(accountName)
		_ = s.commitOp(&op{kind: opHoldUndo, acct: accountName, number: c.Number})
		undo()
		return nil, err
	}
	return &CertifiedCheck{Check: c, Certification: px}, nil
}

// ReleaseExpiredHolds returns expired certified-check holds to their
// accounts and reports how many were released.
func (s *Server) ReleaseExpiredHolds() int {
	type releasedHold struct {
		account  string
		number   string
		currency string
		amount   int64
	}
	var freed []releasedHold
	now := s.clk.Now()
	// Walk accounts and holds in sorted order so the ledger and audit
	// journal record releases deterministically, not in map order. Each
	// account's stripe is held only while its own holds are swept, so
	// a sweep never stalls the whole bank.
	names := s.SortedAccountNames()
	for _, name := range names {
		a, ok := s.lookup(name)
		if !ok {
			continue
		}
		unlock := s.lockAccount(name)
		nums := make([]string, 0, len(a.holds))
		for num := range a.holds {
			nums = append(nums, num)
		}
		sort.Strings(nums)
		for _, num := range nums {
			h := a.holds[num]
			if now.After(h.expires) {
				if s.commitOp(&op{kind: opHoldRelease, time: now, acct: name, number: num}) != nil {
					continue // ledger failed closed; the hold stays put
				}
				freed = append(freed, releasedHold{a.name, num, h.currency, h.amount})
			}
		}
		unlock()
	}
	mHoldsReleased.Add(uint64(len(freed)))
	for _, f := range freed {
		s.emit(audit.Record{
			Kind:    audit.KindHoldRelease,
			Object:  debitObject(f.account),
			Op:      "release-hold",
			Outcome: audit.OutcomeGranted,
			Detail: map[string]string{
				"number":   f.number,
				"currency": f.currency,
				"amount":   strconv.FormatInt(f.amount, 10),
			},
		})
	}
	return len(freed)
}

// CashiersCheck sells a check drawn on the bank's own operating account:
// the purchaser pays immediately, and the resulting check is always
// good. purchaser needs debit rights on purchaseAccount.
func (s *Server) CashiersCheck(purchaseAccount string, requesters []principal.ID, payee principal.ID, currency string, amount int64, lifetime time.Duration) (*Check, error) {
	const operating = "cashier:operating"
	if err := s.ensureAccount(operating, s.ID); err != nil {
		return nil, err
	}
	// Move the purchaser's funds into the operating account first.
	if err := s.Transfer(purchaseAccount, operating, currency, amount, requesters); err != nil {
		return nil, err
	}
	c, err := WriteCheck(WriteCheckParams{
		Payor:    s.identity,
		Bank:     s.ID,
		Account:  operating,
		Payee:    payee,
		Currency: currency,
		Amount:   amount,
		Lifetime: lifetime,
		Clock:    s.clk,
	})
	if err != nil {
		// Refund on failure.
		_ = s.Transfer(operating, purchaseAccount, currency, amount, []principal.ID{s.ID})
		return nil, err
	}
	return c, nil
}
