package main

import (
	"fmt"
	"time"

	"proxykit/internal/accounting"
	"proxykit/internal/ledger"
)

// check is one correctness assertion made in the same command as the
// measurement; any failure makes the run incorrect.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

type checker struct{ checks []check }

// add records the outcome of one check; note says what a passing check
// saw.
func (c *checker) add(name, note string, err error) {
	ck := check{Name: name, OK: err == nil, Detail: note}
	if err != nil {
		ck.Detail = err.Error()
	}
	c.checks = append(c.checks, ck)
}

func (c *checker) ok() bool {
	for _, ck := range c.checks {
		if !ck.OK {
			return false
		}
	}
	return true
}

// expectedBalances is what the main bank must hold: the minted supply
// plus what every acknowledged transfer did.
func expectedBalances(t *topology, clients []*client) (balances map[string]int64, acked uint64) {
	balances = make(map[string]int64, len(t.accounts))
	for i, name := range t.accounts {
		balances[name] = mintPerAcct
		for _, c := range clients {
			balances[name] += c.delta[i]
		}
	}
	for _, c := range clients {
		acked += c.acked
	}
	return balances, acked
}

func sameBalances(got map[string]map[string]int64, want map[string]int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d accounts, want %d", len(got), len(want))
	}
	var total int64
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			return fmt.Errorf("account %s missing", name)
		}
		if g[currency] != w {
			return fmt.Errorf("account %s holds %d, acknowledged transfers say %d", name, g[currency], w)
		}
		total += g[currency]
	}
	if supply := mintPerAcct * int64(len(want)); total != supply {
		return fmt.Errorf("books hold %d, minted supply is %d", total, supply)
	}
	return nil
}

// liveChecks run against the quiesced but still open deployment.
func liveChecks(c *checker, t *topology, want map[string]int64) {
	c.add("acknowledged transfers are in the books and money is conserved",
		fmt.Sprintf("%d accounts", len(want)), sameBalances(t.bank.srv.AccountBalances(), want))
	if t.standby != nil {
		err := t.drainStandby()
		if err == nil {
			err = sameBalances(t.standby.AccountBalances(), want)
		}
		c.add("standby's books equal the primary's after drain", "", err)
	}
}

// recoveryChecks run after the deployment is closed: the WAL must be
// intact and hold exactly provisioning plus the acknowledged records,
// and a fresh server opened on it must come back with the same books.
// It returns what reopening cost per record in the WAL, in µs (snapshot
// restore included).
func recoveryChecks(c *checker, t *topology, want map[string]int64, acked uint64) (replayPerRecordUS float64) {
	records, torn, err := ledger.VerifyWAL(ledger.WALPath(t.bank.dir))
	if err == nil && torn {
		err = fmt.Errorf("torn tail after %d records", records)
	}
	c.add("WAL verifies untorn", fmt.Sprintf("%d records", records), err)

	fresh := accounting.NewServer(t.bankIdent, t.resolve, nil)
	start := time.Now()
	rec, err := fresh.OpenLedger(ledger.Options{Dir: t.bank.dir, Fsync: ledger.FsyncAlways})
	elapsed := time.Since(start)
	if err != nil {
		c.add("WAL reopens into a fresh server", "", err)
		return 0
	}
	defer fresh.CloseLedger()
	if records > 0 {
		replayPerRecordUS = micros(elapsed) / float64(records)
	}
	// A snapshot taken under load leaves the records it covers in the
	// WAL; recovery skips them, so the WAL may hold more than it replays.
	held := rec.SnapshotSeq + uint64(rec.Replayed())
	switch {
	case rec.Replayed() > records:
		err = fmt.Errorf("recovery replayed %d records, WAL verifies only %d", rec.Replayed(), records)
	case held != t.provisioned+acked:
		err = fmt.Errorf("snapshot+WAL hold %d records, provisioning wrote %d and %d transfers were acknowledged",
			held, t.provisioned, acked)
	}
	c.add("snapshot and WAL hold provisioning plus every acknowledged record",
		fmt.Sprintf("snapshot at seq %d + %d replayed = %d provisioning + %d acknowledged", rec.SnapshotSeq, rec.Replayed(), t.provisioned, acked), err)
	c.add("reopened WAL reproduces the books", "", sameBalances(fresh.AccountBalances(), want))
	return replayPerRecordUS
}
