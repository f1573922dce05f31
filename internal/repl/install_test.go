package repl_test

import (
	"bytes"
	"testing"
	"time"

	"proxykit/internal/acl"
	"proxykit/internal/authz"
	"proxykit/internal/clock"
	"proxykit/internal/group"
	"proxykit/internal/ledger"
	"proxykit/internal/principal"
	"proxykit/internal/repl"
)

// TestCorruptSnapshotInstallChangesNothing pins the all-or-nothing
// install on the three real machines: a shipped snapshot that fails to
// decode — whether as JSON or only at a principal deep inside it —
// must leave a standby's state and WAL position exactly as they were,
// not wipe its books and leave it serving (and promotable) empty.
func TestCorruptSnapshotInstallChangesNothing(t *testing.T) {
	clk := clock.NewFake(time.Unix(21_000_000, 0))

	bank := newBank(t, clk, t.TempDir(), ledger.FsyncOff)
	defer bank.CloseLedger()
	mustDo(t, bank.CreateAccount("carol", rCarol))
	mustDo(t, bank.Mint("carol", "dollars", 500))

	grp := group.New(seededIdentity(t, principal.New("groups", "ISI.EDU"), 4), clk)
	if _, err := grp.OpenLedger(ledger.Options{Dir: t.TempDir(), Fsync: ledger.FsyncOff}); err != nil {
		t.Fatal(err)
	}
	defer grp.CloseLedger()
	grp.AddMember("staff", rCarol)

	az := authz.New(seededIdentity(t, principal.New("authz", "ISI.EDU"), 5), clk)
	if _, err := az.OpenLedger(ledger.Options{Dir: t.TempDir(), Fsync: ledger.FsyncOff}); err != nil {
		t.Fatal(err)
	}
	defer az.CloseLedger()
	az.AddRule(authz.Rule{
		EndServer: principal.New("srv", "ISI.EDU"), Object: "obj",
		Subject: acl.Subject{Principals: []principal.ID{rCarol}}, Ops: []string{"read"},
	})

	machines := []struct {
		name string
		sm   repl.StateMachine
		// deep is well-formed JSON of the machine's own schema whose
		// second element names an unparseable principal, so decoding
		// fails only after part of the document has been accepted.
		deep string
	}{
		{"accounting", bank, `{"accounts":[{"name":"ok","acl":[]},{"name":"bad","acl":[{"principals":["not a principal"]}]}]}`},
		{"group", grp, `{"groups":[{"name":"ok"},{"name":"bad","principals":["not a principal"]}]}`},
		{"authz", az, `{"rules":[{"endServer":"srv@ISI.EDU"},{"endServer":"not a principal"}]}`},
	}
	for _, m := range machines {
		before, beforeSeq, err := m.sm.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		if beforeSeq == 0 {
			t.Fatalf("%s: no state to lose", m.name)
		}
		for _, corrupt := range []string{`{"truncated`, m.deep} {
			if err := m.sm.InstallSnapshot([]byte(corrupt), 99); err == nil {
				t.Fatalf("%s: installed corrupt snapshot %s", m.name, corrupt)
			}
			after, afterSeq, err := m.sm.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) || beforeSeq != afterSeq {
				t.Fatalf("%s: failed install of %s changed state:\nbefore @%d: %s\nafter  @%d: %s",
					m.name, corrupt, beforeSeq, before, afterSeq, after)
			}
		}
		// A sound snapshot still installs.
		if err := m.sm.InstallSnapshot(before, 99); err != nil {
			t.Fatalf("%s: reinstalling own snapshot: %v", m.name, err)
		}
		if after, seq, _ := m.sm.SnapshotState(); !bytes.Equal(before, after) || seq != 99 {
			t.Fatalf("%s: after install got @%d %s, want @99 %s", m.name, seq, after, before)
		}
	}
}
