package chaos

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"proxykit/internal/accounting"
	"proxykit/internal/audit"
	"proxykit/internal/clock"
	"proxykit/internal/faultpoint"
	"proxykit/internal/obs"
	"proxykit/internal/principal"
	"proxykit/internal/pubkey"
	"proxykit/internal/transport"
)

var (
	carol = principal.New("carol", "CHAOS.ORG")
	srvS  = principal.New("service", "CHAOS.ORG")
)

// world is a two-bank economy with journals attached: carol banks at
// bank2 (the drawee), the service banks at bank1 (Fig. 5).
type world struct {
	t        *testing.T
	clk      *clock.Fake
	dir      *pubkey.Directory
	ids      map[principal.ID]*pubkey.Identity
	bank1    *accounting.Server
	bank2    *accounting.Server
	journal1 *audit.Journal
	journal2 *audit.Journal
}

func newWorld(t *testing.T) *world {
	t.Helper()
	w := &world{
		t:   t,
		clk: clock.NewFake(time.Unix(19_000_000, 0)),
		dir: pubkey.NewDirectory(),
		ids: make(map[principal.ID]*pubkey.Identity),
	}
	for _, id := range []principal.ID{carol, srvS} {
		w.register(id)
	}
	b1 := w.register(principal.New("bank1", "CHAOS.ORG"))
	b2 := w.register(principal.New("bank2", "CHAOS.ORG"))
	w.bank1 = accounting.NewServer(b1, w.dir.Resolver(), w.clk)
	w.bank2 = accounting.NewServer(b2, w.dir.Resolver(), w.clk)
	w.bank1.AddPeer(w.bank2)
	w.bank2.AddPeer(w.bank1)
	w.journal1 = audit.NewMemory(8192)
	w.journal2 = audit.NewMemory(8192)
	w.bank1.SetJournal(w.journal1)
	w.bank2.SetJournal(w.journal2)

	if err := w.bank2.CreateAccount("carol", carol); err != nil {
		t.Fatal(err)
	}
	if err := w.bank2.Mint("carol", "dollars", 10_000); err != nil {
		t.Fatal(err)
	}
	if err := w.bank1.CreateAccount("service", srvS); err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *world) register(id principal.ID) *pubkey.Identity {
	w.t.Helper()
	ident, err := pubkey.NewIdentity(id)
	if err != nil {
		w.t.Fatal(err)
	}
	w.ids[id] = ident
	w.dir.RegisterIdentity(ident)
	return ident
}

// endorsedCheck writes a check on carol's account at bank2 and
// endorses it to bank1 for deposit into the service's account.
func (w *world) endorsedCheck(amount int64) *accounting.Check {
	w.t.Helper()
	c, err := accounting.WriteCheck(accounting.WriteCheckParams{
		Payor:    w.ids[carol],
		Bank:     w.bank2.ID,
		Account:  "carol",
		Payee:    srvS,
		Currency: "dollars",
		Amount:   amount,
		Lifetime: 24 * time.Hour,
		Clock:    w.clk,
	})
	if err != nil {
		w.t.Fatal(err)
	}
	e, err := c.Endorse(w.ids[srvS], w.bank1.ID, w.bank1.ID, w.bank1.Global("service"), true, w.clk)
	if err != nil {
		w.t.Fatal(err)
	}
	return e
}

func (w *world) balance(b *accounting.Server, account string, who principal.ID) int64 {
	w.t.Helper()
	v, err := b.Balance(account, "dollars", []principal.ID{who})
	if err != nil {
		w.t.Fatal(err)
	}
	return v
}

// chaosRetry is the retry policy for the suite: generous attempt cap,
// no real sleeping, fixed seed.
func chaosRetry(attempts int) transport.RetryPolicy {
	return transport.RetryPolicy{
		MaxAttempts: attempts,
		Seed:        1,
		Sleep:       func(time.Duration) {},
	}
}

// depositCtx returns a context carrying a fresh trace, so the records
// both banks journal for one deposit share a trace ID.
func depositCtx() (context.Context, string) {
	tr := obs.NewTrace()
	return obs.ContextWithTrace(context.Background(), tr), tr.TraceID
}

// TestExactlyOnceClearingUnderChaos is the headline scenario: checks
// written at bank2, deposited at bank1, cleared across the hop under
// 30% drop plus duplication. Every deposit converges, the payor is
// debited and the payee credited exactly once per check, and the whole
// history is reconstructible from the two audit journals.
func TestExactlyOnceClearingUnderChaos(t *testing.T) {
	w := newWorld(t)
	w.bank1.SetHopRetry(chaosRetry(12))
	w.bank1.SetHopInjector(faultpoint.New(1202,
		faultpoint.Rule{Method: accounting.HopMethod, Drop: 0.3, Dup: 0.15}))

	const n, amount = 25, 20
	traces := make(map[string]string, n) // check number -> trace ID
	for i := 0; i < n; i++ {
		endorsed := w.endorsedCheck(amount)
		ctx, traceID := depositCtx()
		r, err := w.bank1.DepositCheckCtx(ctx, endorsed, []principal.ID{srvS}, "service")
		if err != nil {
			t.Fatalf("check %d failed to clear under chaos: %v", i, err)
		}
		if !r.Collected || r.Amount != amount {
			t.Fatalf("check %d receipt = %+v", i, r)
		}
		traces[r.Number] = traceID
	}

	// Exactly-once money movement.
	if got := w.balance(w.bank2, "carol", carol); got != 10_000-n*amount {
		t.Errorf("carol = %d, want %d", got, 10_000-n*amount)
	}
	if got := w.balance(w.bank1, "service", srvS); got != n*amount {
		t.Errorf("service = %d, want %d", got, n*amount)
	}
	u, err := w.bank1.UncollectedBalance("service", "dollars", []principal.ID{srvS})
	if err != nil || u != 0 {
		t.Errorf("uncollected = %d, %v", u, err)
	}

	// Both journals' hash chains verify end to end.
	recs1, recs2 := w.journal1.Tail(0), w.journal2.Tail(0)
	if err := audit.VerifyChain(recs1); err != nil {
		t.Fatalf("bank1 journal chain: %v", err)
	}
	if err := audit.VerifyChain(recs2); err != nil {
		t.Fatalf("bank2 journal chain: %v", err)
	}

	// Reconstruct from the journals: per check number, exactly one
	// granted deposit at each bank; redeliveries appear only as
	// accept-once rejections at the drawee.
	granted1 := grantedDeposits(recs1)
	granted2 := grantedDeposits(recs2)
	rejects2 := countKind(recs2, audit.KindAcceptOnceReject)
	for number, traceID := range traces {
		if got := granted1[number]; got != 1 {
			t.Errorf("bank1 journal: %d granted deposits for %s, want 1", got, number)
		}
		if got := granted2[number]; got != 1 {
			t.Errorf("bank2 journal: %d granted deposits for %s, want 1", got, number)
		}
		if tid := depositTrace(recs2, number); tid != traceID {
			t.Errorf("check %s: drawee journal trace %q != deposit trace %q (clearing lost the trace)", number, tid, traceID)
		}
	}
	if rejects2 == 0 {
		t.Error("no accept-once rejections journaled at the drawee — redelivery never happened, chaos too tame")
	}
	// Every clearing hop was journaled with its delivery outcome.
	if hops := countKind(recs1, audit.KindClearingHop); hops < n {
		t.Errorf("bank1 journal: %d clearing-hop records, want >= %d", hops, n)
	}
}

// grantedDeposits counts granted deposit records per check number.
func grantedDeposits(recs []audit.Record) map[string]int {
	out := make(map[string]int)
	for _, r := range recs {
		if r.Kind == audit.KindDeposit && r.Outcome == audit.OutcomeGranted {
			out[r.Detail["number"]]++
		}
	}
	return out
}

// depositTrace returns the trace ID of the granted deposit for number.
func depositTrace(recs []audit.Record, number string) string {
	for _, r := range recs {
		if r.Kind == audit.KindDeposit && r.Outcome == audit.OutcomeGranted && r.Detail["number"] == number {
			return r.TraceID
		}
	}
	return ""
}

// countKind counts records of one kind.
func countKind(recs []audit.Record, kind string) int {
	n := 0
	for _, r := range recs {
		if r.Kind == kind {
			n++
		}
	}
	return n
}

// TestPartitionHealConvergence: a full partition exhausts the retry
// budget and the deposit bounces with the uncollected credit rolled
// back; after the partition heals the same check clears.
func TestPartitionHealConvergence(t *testing.T) {
	w := newWorld(t)
	w.bank1.SetHopRetry(chaosRetry(4))
	inj := faultpoint.New(5, faultpoint.Rule{Method: accounting.HopMethod, Partition: true})
	w.bank1.SetHopInjector(inj)

	endorsed := w.endorsedCheck(500)
	ctx, _ := depositCtx()
	_, err := w.bank1.DepositCheckCtx(ctx, endorsed, []principal.ID{srvS}, "service")
	var fe *faultpoint.Error
	if !errors.As(err, &fe) {
		t.Fatalf("partitioned deposit: err = %v, want injected fault", err)
	}
	if got := w.balance(w.bank2, "carol", carol); got != 10_000 {
		t.Fatalf("carol = %d during partition, want 10000", got)
	}
	u, _ := w.bank1.UncollectedBalance("service", "dollars", []principal.ID{srvS})
	if u != 0 {
		t.Fatalf("uncollected = %d after bounced deposit, want 0", u)
	}

	// Heal the partition: the hop runs with no injector.
	w.bank1.SetHopInjector(nil)
	r, err := w.bank1.DepositCheckCtx(ctx, endorsed, []principal.ID{srvS}, "service")
	if err != nil {
		t.Fatalf("re-presenting after heal: %v", err)
	}
	if !r.Collected || r.Hops != 2 {
		t.Fatalf("receipt = %+v", r)
	}
	if got := w.balance(w.bank1, "service", srvS); got != 500 {
		t.Errorf("service = %d, want 500", got)
	}
}

// TestConcurrentDepositorsUnderChaos: many goroutines clear distinct
// checks through the same lossy hop concurrently; all converge, and
// the books balance exactly-once. Run with -race.
func TestConcurrentDepositorsUnderChaos(t *testing.T) {
	w := newWorld(t)
	w.bank1.SetHopRetry(chaosRetry(12))
	w.bank1.SetHopInjector(faultpoint.New(77,
		faultpoint.Rule{Method: accounting.HopMethod, Drop: 0.3, Dup: 0.1}))

	const n, amount = 16, 25
	checks := make([]*accounting.Check, n)
	for i := range checks {
		checks[i] = w.endorsedCheck(amount)
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, _ := depositCtx()
			_, errs[i] = w.bank1.DepositCheckCtx(ctx, checks[i], []principal.ID{srvS}, "service")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent deposit %d: %v", i, err)
		}
	}
	if got := w.balance(w.bank2, "carol", carol); got != 10_000-n*amount {
		t.Errorf("carol = %d, want %d", got, 10_000-n*amount)
	}
	if got := w.balance(w.bank1, "service", srvS); got != n*amount {
		t.Errorf("service = %d, want %d", got, n*amount)
	}
	if err := audit.VerifyChain(w.journal2.Tail(0)); err != nil {
		t.Fatalf("bank2 journal chain after concurrency: %v", err)
	}
}

// TestDeterministicConvergence: the same seed produces the same
// injection schedule, so the suite's chaos is reproducible — two runs
// over identical worlds leave identical books and identical injection
// decisions.
func TestDeterministicConvergence(t *testing.T) {
	run := func() (int64, []faultpoint.Decision) {
		w := newWorld(t)
		w.bank1.SetHopRetry(chaosRetry(12))
		w.bank1.SetHopInjector(faultpoint.New(4242,
			faultpoint.Rule{Method: accounting.HopMethod, Drop: 0.3, Dup: 0.15}))
		for i := 0; i < 10; i++ {
			ctx, _ := depositCtx()
			if _, err := w.bank1.DepositCheckCtx(ctx, w.endorsedCheck(10), []principal.ID{srvS}, "service"); err != nil {
				t.Fatalf("deposit %d: %v", i, err)
			}
		}
		probe := faultpoint.New(4242, faultpoint.Rule{Method: "*", Drop: 0.3, Dup: 0.15})
		var schedule []faultpoint.Decision
		for i := 0; i < 32; i++ {
			schedule = append(schedule, probe.Decide(fmt.Sprintf("m%d", i)))
		}
		return w.balance(w.bank2, "carol", carol), schedule
	}
	bal1, sched1 := run()
	bal2, sched2 := run()
	if bal1 != bal2 {
		t.Fatalf("same seed, different books: %d vs %d", bal1, bal2)
	}
	for i := range sched1 {
		if sched1[i] != sched2[i] {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, sched1[i], sched2[i])
		}
	}
}
