package accounting

// Hash-striped account locks. The single server mutex serialized every
// operation on the bank; transfers between disjoint account pairs now
// proceed in parallel, each holding only the stripes its accounts hash
// to. Lock order, everywhere in the package:
//
//	createMu → stripes (ascending index) → acctMu → cfgMu, durable.Store
//
// Deadlock freedom follows from the total order: pair operations take
// both stripes in ascending index order, whole-bank captures take every
// stripe ascending, and acctMu (the accounts-map lock) is only ever
// taken while holding stripes or alone — never the reverse. cfgMu and
// the embedded Store's mutex are leaves.
//
// Commit invariant: every commitOp call site holds, in write mode, the
// stripe of every account its op mutates. Whole-bank captures (Totals,
// Snapshot) hold all stripes, so no commit is mid-flight between its
// WAL append and its in-memory apply while they look — the captured
// state and ledger sequence number agree.

import (
	"hash/fnv"
	"sort"
	"time"
)

// lockStripes is the number of account-lock stripes. A power of two
// comfortably above the daemon worker-pool size, so concurrent
// transfers rarely collide on a stripe they don't share an account
// with.
const lockStripes = 64

// stripeOf hashes an account name to its stripe index.
func stripeOf(name string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(name))
	return int(h.Sum32() % lockStripes)
}

// lookup fetches an account by name. Accounts are never deleted, so the
// returned pointer stays valid; its fields are guarded by the account's
// stripe, not by acctMu.
func (s *Server) lookup(name string) (*account, bool) {
	s.acctMu.RLock()
	a, ok := s.accounts[name]
	s.acctMu.RUnlock()
	return a, ok
}

// lockAccount write-locks the stripe guarding name.
func (s *Server) lockAccount(name string) (unlock func()) {
	i := stripeOf(name)
	start := time.Now()
	s.stripes[i].Lock()
	mStripeWait.Observe(time.Since(start).Seconds())
	mStripeLocks.With("single").Inc()
	return s.stripes[i].Unlock
}

// rlockAccount read-locks the stripe guarding name, for balance and
// statement reads that must not observe a mid-commit state.
func (s *Server) rlockAccount(name string) (unlock func()) {
	i := stripeOf(name)
	start := time.Now()
	s.stripes[i].RLock()
	mStripeWait.Observe(time.Since(start).Seconds())
	mStripeLocks.With("single").Inc()
	return s.stripes[i].RUnlock
}

// lockPair write-locks the stripes guarding two accounts in ascending
// index order (the deterministic ordered acquisition that keeps
// opposite-direction transfers from deadlocking); a shared stripe is
// taken once.
func (s *Server) lockPair(a, b string) (unlock func()) {
	i, j := stripeOf(a), stripeOf(b)
	if i == j {
		return s.lockAccount(a)
	}
	if i > j {
		i, j = j, i
	}
	start := time.Now()
	s.stripes[i].Lock()
	s.stripes[j].Lock()
	mStripeWait.Observe(time.Since(start).Seconds())
	mStripeLocks.With("pair").Inc()
	return func() {
		s.stripes[j].Unlock()
		s.stripes[i].Unlock()
	}
}

// lockAll read-locks every stripe in ascending order. Read mode still
// excludes writers, so in-flight commits (which hold their stripes in
// write mode across append+apply) finish before the capture begins —
// while concurrent whole-bank readers can overlap each other.
func (s *Server) lockAll() (unlock func()) {
	start := time.Now()
	for i := range s.stripes {
		s.stripes[i].RLock()
	}
	mStripeWait.Observe(time.Since(start).Seconds())
	mStripeLocks.With("all").Inc()
	return func() {
		for i := len(s.stripes) - 1; i >= 0; i-- {
			s.stripes[i].RUnlock()
		}
	}
}

// lockAllExclusive write-locks every stripe in ascending order.
// Replication snapshot installs replace the whole bank's state and must
// exclude readers as well as writers — a balance read overlapping the
// swap could observe the emptied map.
func (s *Server) lockAllExclusive() (unlock func()) {
	start := time.Now()
	for i := range s.stripes {
		s.stripes[i].Lock()
	}
	mStripeWait.Observe(time.Since(start).Seconds())
	mStripeLocks.With("all").Inc()
	return func() {
		for i := len(s.stripes) - 1; i >= 0; i-- {
			s.stripes[i].Unlock()
		}
	}
}

// sortedNamesLocked lists account names in sorted order; callers hold
// acctMu (either mode).
func (s *Server) sortedNamesLocked() []string {
	names := make([]string, 0, len(s.accounts))
	for name := range s.accounts {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
