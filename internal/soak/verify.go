package soak

// The continuous verifier. Each pass quiesces money movement (taking
// the write side of the gate every money-moving op read-holds), then:
//
//  1. re-walks both banks' hash-chained journals from disk — any chain
//     break is a violation;
//  2. asserts exactly-once clearing: no check number credited twice on
//     one journal, and every accept-once rejection refers to a payment
//     that actually happened;
//  3. takes a money census of both banks and asserts conservation to
//     the dollar: customer money (balances + uncollected + holds)
//     plus clearing orphans equals exactly what provisioning minted.
//     An orphan is a hop that had effect at the drawee (payor debited,
//     clearing account credited) whose receipt the collector never
//     got despite retries — the drawee's journal shows a granted
//     clearing credit with no matching grant on the collector's;
//  4. joins tracked cross-bank clearings back to their traces: every
//     check the harness cleared must appear on the collector's journal
//     under the trace ID that carried it.
//
// The double-credit injection (Config.InjectDoubleCredit) breaks (3):
// minting outside provisioning raises customer money above the minted
// supply, and the next pass reports it.

import (
	"fmt"
	"strconv"
	"strings"

	"proxykit/internal/accounting"
	"proxykit/internal/audit"
)

// depositFact is one granted deposit distilled from a journal.
type depositFact struct {
	amount   int64
	currency string
	credit   string
	traceID  string
}

// journalFacts is the digest of one bank's journal.
type journalFacts struct {
	granted      map[string]depositFact
	grantedCount map[string]int
	rejects      []string
}

// walkJournal re-walks one journal's hash chain from disk.
func walkJournal(path string) (*journalFacts, error) {
	f := &journalFacts{
		granted:      map[string]depositFact{},
		grantedCount: map[string]int{},
	}
	_, err := audit.WalkFile(path, func(r audit.Record) {
		switch r.Kind {
		case audit.KindDeposit:
			if r.Outcome != audit.OutcomeGranted {
				return
			}
			num := r.Detail["number"]
			amt, _ := strconv.ParseInt(r.Detail["amount"], 10, 64)
			f.grantedCount[num]++
			f.granted[num] = depositFact{
				amount:   amt,
				currency: r.Detail["currency"],
				credit:   r.Detail["credit"],
				traceID:  r.TraceID,
			}
		case audit.KindAcceptOnceReject:
			f.rejects = append(f.rejects, r.Detail["number"])
		}
	})
	if err != nil {
		return nil, fmt.Errorf("audit chain broken in %s: %w", path, err)
	}
	return f, nil
}

// orphanedMoney sums, per currency, drawee-side clearing credits whose
// check number the collector never granted: money stranded in the
// drawee's clearing account by an exhausted hop retry.
func orphanedMoney(drawee, collector *journalFacts) map[string]int64 {
	out := map[string]int64{}
	for num, f := range drawee.granted {
		if strings.HasPrefix(f.credit, accounting.ClearingAccountPrefix) && collector.grantedCount[num] == 0 {
			out[f.currency] += f.amount
		}
	}
	return out
}

func (h *harness) verifyPass() error {
	h.gate.Lock()
	defer h.gate.Unlock()

	b1, err := walkJournal(h.topo.journals["bank1"])
	if err != nil {
		return err
	}
	b2, err := walkJournal(h.topo.journals["bank2"])
	if err != nil {
		return err
	}

	// Exactly-once: one credit per check number per journal, and every
	// accept-once rejection names a payment that exists.
	for name, facts := range map[string]*journalFacts{"bank1": b1, "bank2": b2} {
		for num, n := range facts.grantedCount {
			if n > 1 {
				return fmt.Errorf("exactly-once violated: %s credited check %q %d times", name, num, n)
			}
		}
		for _, num := range facts.rejects {
			if facts.grantedCount[num] == 0 {
				return fmt.Errorf("accept-once registry on %s rejected check %q it never honored", name, num)
			}
		}
	}

	// Conservation: customer money + orphans == minted, per currency.
	// Clearing-account balances back collector-side credits already
	// counted, so they are excluded — except the orphaned slice, which
	// nothing else counts.
	orphans := orphanedMoney(b2, b1)
	for cur, amt := range orphanedMoney(b1, b2) {
		orphans[cur] += amt
	}
	t1 := h.topo.bank.Totals()
	t2 := h.topo.bank2.Totals()
	for cur, minted := range h.topo.minted {
		customer := t1.Balances[cur] + t1.Uncollected[cur] + t1.Held[cur] +
			t2.Balances[cur] + t2.Uncollected[cur] + t2.Held[cur]
		if customer+orphans[cur] != minted {
			return fmt.Errorf("conservation violated: %s: customer money %d + orphaned %d = %d, minted %d (diff %+d)",
				cur, customer, orphans[cur], customer+orphans[cur], minted, customer+orphans[cur]-minted)
		}
	}

	// Trace completeness: every cross-bank clearing the harness saw
	// succeed is on the collector's journal under its trace.
	h.mu.Lock()
	numbers := make(map[string]string, len(h.numbers))
	for num, tr := range h.numbers {
		numbers[num] = tr
	}
	h.mu.Unlock()
	for num, want := range numbers {
		f, ok := b1.granted[num]
		if !ok {
			return fmt.Errorf("trace incomplete: cleared check %q missing from collector journal", num)
		}
		if f.traceID != want {
			return fmt.Errorf("trace incomplete: check %q journaled under trace %q, cleared under %q",
				num, f.traceID, want)
		}
	}

	h.mu.Lock()
	h.verifyPasses++
	passes := h.verifyPasses
	ops := 0
	for _, n := range h.ops {
		ops += n
	}
	h.mu.Unlock()
	h.logf("soak: verify pass %d clean (%d ops done, %d clearings tracked, %d orphaned dollars)",
		passes, ops, len(numbers), orphans["dollars"])
	return nil
}
