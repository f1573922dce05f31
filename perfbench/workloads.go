package main

import (
	"math/rand"
	"time"
)

// workload is one traffic shape. Client counts are part of the
// definition, not derived from the machine: a closed loop of N callers
// that each wait for their reply is what an application server or the
// gateway presents to these services.
type workload struct {
	name string
	why  string
	// clients is the closed loop's fixed concurrency.
	clients int
	// principals and accounts size the provisioned world.
	principals, accounts int
	// preacquire gives every principal its cascaded authorization proxy
	// during set-up, so the measured op only presents it.
	preacquire bool
	// standby adds a semi-sync hot standby behind the bank.
	standby bool
	// http drives the op through the gateway.
	http bool
	// limitUS is the cmd/loadgen default SLO for the op's method; ops
	// slower than it are counted as a diagnostic, not gated.
	limitUS float64
	// op performs one operation as client c; spans is nil outside the
	// traced pass.
	op func(t *topology, c *client, spans *spanLog) error
}

var workloads = []*workload{
	{
		name: "authorize-warm",
		why:  "Steady state of the paper (3.4 offline verification): a pre-acquired cascaded proxy is presented; ChainCache hits, the ledger is idle, so WAL or replication changes must not move it.",

		clients: 2, principals: 64, preacquire: true,
		limitUS: 50_000,
		op:      opAuthorize,
	},
	{
		name: "session-cold",
		why:  "Full Fig. 3/4 acquisition per op (group grant, authz grant, first request): every chain is new, so ChainCache misses and evicts and the grant paths do the work; the counterpart of authorize-warm.",

		clients: 2, principals: 256,
		limitUS: 50_000,
		op:      opSession,
	},
	{
		name: "pay-durable",
		why:  "The fsync wall with real cohorts: 8 callers transfer between 1024 accounts on an fsync=always group-commit WAL with one checkpoint per segment and no standby; baseline for the replicated run.",

		clients: 8, principals: 8, accounts: 1024,
		limitUS: 25_000,
		op:      opTransfer,
	},
	{
		name: "edge-pay-replicated",
		why:  "The whole path at concurrency 1 (HTTP, RPC, envelope, stripe, WAL, fsync, semi-sync standby ack): no queueing, one-member cohorts, hop times add; a cohort join window helps pay-durable, costs here.",

		clients: 1, principals: 1, accounts: 1024, standby: true, http: true,
		limitUS: 250_000,
		op:      opHTTPTransfer,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// client is one closed-loop caller. Its request stream is a function of
// the run's seed and its index alone; the program under test only ever
// sees the requests.
type client struct {
	rng *rand.Rand
	// order is the principal visiting order; next walks it round-robin.
	order []int
	next  int
	// delta is what this client's acknowledged transfers did to each
	// account, for the balance check.
	delta []int64
	acked uint64
}

func newClient(seed int64, index int, w *workload) *client {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(index)))
	c := &client{rng: rng, order: rng.Perm(w.principals), delta: make([]int64, w.accounts)}
	// Clients start at spread-out points of their own orders so two
	// callers are not presenting the same principal in lockstep.
	c.next = index * w.principals / max(w.clients, 1)
	return c
}

func (c *client) principal() int {
	p := c.order[c.next%len(c.order)]
	c.next++
	return p
}

// pair picks a uniform (from, to) with from debitable by principal p:
// account i belongs to principal i mod principals.
func (c *client) pair(t *topology, p int) (from, to int) {
	owners := len(t.sims)
	from = p + owners*c.rng.Intn(len(t.accounts)/owners)
	to = c.rng.Intn(len(t.accounts) - 1)
	if to >= from {
		to++
	}
	return from, to
}

func (c *client) ack(from, to int) {
	c.delta[from]--
	c.delta[to]++
	c.acked++
}

func opAuthorize(t *topology, c *client, _ *spanLog) error {
	s := t.sims[c.principal()]
	return t.request(s, s.grant, sharedDoc)
}

func opSession(t *topology, c *client, spans *spanLog) error {
	s := t.sims[c.principal()]
	grant, err := t.acquire(s, spans)
	if err != nil {
		return err
	}
	start := time.Now()
	err = t.request(s, grant, sharedDoc)
	spans.record("endserver.first_request", sessionSpan, start, time.Now())
	return err
}

func opTransfer(t *topology, c *client, _ *spanLog) error {
	p := c.principal()
	from, to := c.pair(t, p)
	if err := t.sims[p].bank.Transfer(t.accounts[from], t.accounts[to], currency, 1); err != nil {
		return err
	}
	c.ack(from, to)
	return nil
}

func opHTTPTransfer(t *topology, c *client, _ *spanLog) error {
	p := c.principal()
	from, to := c.pair(t, p)
	if err := t.httpTransfer(t.sims[p].token, t.accounts[from], t.accounts[to]); err != nil {
		return err
	}
	c.ack(from, to)
	return nil
}
