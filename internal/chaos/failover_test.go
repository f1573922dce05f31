package chaos

// Kill-the-primary failover suite: a child process runs a semi-sync
// replicated bank primary; the parent tails it as a hot standby over
// TCP, SIGKILLs the child after a seeded number of acknowledged
// deposits, promotes the standby, and proves the failover invariants:
//
//   - zero acknowledged payments lost: every check the child recorded
//     as acknowledged before the kill is present on the promoted
//     standby (re-presenting it is refused as a duplicate);
//   - the books balance exactly against the cleared count;
//   - the accept-once registry survived the failover;
//   - the deposed primary is fenced: restarted from its own ledger, it
//     refuses every mutation once the new term reaches it.
//
// Semi-sync is what makes the first invariant non-probabilistic: the
// child only acknowledges a deposit (writes its number to the acked
// file) after the commit returns, and the commit only returns after the
// standby has pulled past the record.

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"proxykit/internal/accounting"
	"proxykit/internal/ledger"
	"proxykit/internal/principal"
	"proxykit/internal/repl"
	"proxykit/internal/transport"
)

const (
	failoverMaxSteps = 5_000
	failoverSeed     = 1789
)

// TestReplFailoverChild is the primary that dies. It only does real
// work when re-executed by TestReplFailoverKillPrimary.
func TestReplFailoverChild(t *testing.T) {
	dir := os.Getenv("CHAOS_FAILOVER_DIR")
	if dir == "" {
		t.Skip("child-only test")
	}
	w := newCrashWorld(t)
	ledgerDir := filepath.Join(dir, "primary")
	if _, err := w.bank.OpenLedger(ledger.Options{Dir: ledgerDir, Fsync: ledger.FsyncAlways}); err != nil {
		t.Fatal(err)
	}
	// Seed the economy before replication starts so setup commits do
	// not each wait out the semi-sync window while no standby exists.
	if err := w.bank.CreateAccount("carol", w.carol.ID); err != nil {
		t.Fatal(err)
	}
	if err := w.bank.CreateAccount("service", w.srv.ID); err != nil {
		t.Fatal(err)
	}
	if err := w.bank.Mint("carol", "dollars", crashMint); err != nil {
		t.Fatal(err)
	}

	node, err := repl.NewNode(repl.Config{
		SM: w.bank, Dir: ledgerDir,
		SyncTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := transport.NewMux()
	node.Mount(mux)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewTCPServer(l, mux)
	defer srv.Close()

	// Publish the address atomically: the parent dials as soon as the
	// file appears.
	addrTmp := filepath.Join(dir, "addr.tmp")
	if err := os.WriteFile(addrTmp, []byte(l.Addr().String()), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(addrTmp, filepath.Join(dir, "addr")); err != nil {
		t.Fatal(err)
	}

	acked, err := os.OpenFile(filepath.Join(dir, "acked"),
		os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < failoverMaxSteps; i++ {
		number := crashCheckNumber(i)
		if err := w.depositNumbered(number); err != nil {
			t.Fatalf("deposit %s: %v", number, err)
		}
		// The deposit returned: semi-sync guarantees the standby holds
		// it. Only now does it count as acknowledged to the client.
		if _, err := fmt.Fprintf(acked, "%s\n", number); err != nil {
			t.Fatal(err)
		}
		if err := acked.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	// Surviving every step means the parent never killed us.
	if err := os.WriteFile(filepath.Join(dir, "completed"), []byte("no kill\n"), 0o600); err != nil {
		t.Fatal(err)
	}
}

func TestReplFailoverKillPrimary(t *testing.T) {
	if os.Getenv("CHAOS_FAILOVER_DIR") != "" {
		return // child run; work happens in TestReplFailoverChild
	}
	if testing.Short() {
		t.Skip("multi-process failover test in -short mode")
	}
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(failoverSeed))
	killAfter := 20 + rng.Intn(30) // acked deposits before the plug is pulled

	child, err := StartProc(os.Args[0],
		[]string{"-test.run=^TestReplFailoverChild$", "-test.v"},
		[]string{"CHAOS_FAILOVER_DIR=" + dir})
	if err != nil {
		t.Fatal(err)
	}
	defer child.Stop()

	if err := awaitFile(filepath.Join(dir, "addr"), 30*time.Second); err != nil {
		t.Fatal(err)
	}
	addrRaw, err := os.ReadFile(filepath.Join(dir, "addr"))
	if err != nil {
		t.Fatal(err)
	}
	client, err := transport.DialTCP(string(addrRaw), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// The parent is the hot standby.
	ws := newCrashWorld(t)
	standbyDir := filepath.Join(dir, "standby")
	if _, err := ws.bank.OpenLedger(ledger.Options{Dir: standbyDir, Fsync: ledger.FsyncAlways}); err != nil {
		t.Fatal(err)
	}
	defer ws.bank.CloseLedger()
	sNode, err := repl.NewNode(repl.Config{
		SM: ws.bank, Dir: standbyDir, Standby: true,
		Source:   client,
		PullWait: 100 * time.Millisecond, RetryWait: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sNode.Close()

	// Pull the plug once killAfter deposits have been acknowledged.
	ackedPath := filepath.Join(dir, "acked")
	deadline := time.Now().Add(60 * time.Second)
	for {
		if len(readAckedNumbers(t, ackedPath)) >= killAfter {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("child acked fewer than %d deposits in time", killAfter)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := child.Kill(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "completed")); !os.IsNotExist(err) {
		t.Fatal("child completed all steps before the kill")
	}
	ackedNumbers := readAckedNumbers(t, ackedPath)
	if len(ackedNumbers) < killAfter {
		t.Fatalf("only %d acked deposits on record, want >= %d", len(ackedNumbers), killAfter)
	}
	t.Logf("killed primary after %d acked deposits (seed %d)", len(ackedNumbers), failoverSeed)

	// Failover: the standby becomes the primary under a fresh term.
	oldTerm := sNode.Term()
	newTerm, err := sNode.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if newTerm != oldTerm+1 {
		t.Fatalf("promoted term = %d, want %d", newTerm, oldTerm+1)
	}
	if got, err := repl.LoadTerm(standbyDir); err != nil || got != newTerm {
		t.Fatalf("persisted standby term = %d, %v, want %d", got, err, newTerm)
	}

	// Zero acknowledged payments lost: every acked check is already on
	// the promoted standby, so re-presenting it trips accept-once.
	for _, number := range ackedNumbers {
		err := ws.depositNumbered(number)
		if !errors.Is(err, accounting.ErrDuplicateCheck) {
			t.Fatalf("acked check %s after failover: err = %v, want ErrDuplicateCheck", number, err)
		}
	}

	// The books balance exactly: cleared checks per the statement match
	// the money moved, and cover at least every acknowledged deposit
	// (the standby may hold a final record whose ack never made it out).
	stmt, err := ws.bank.Statement("service", []principal.ID{ws.srv.ID})
	if err != nil {
		t.Fatal(err)
	}
	cleared := 0
	for _, tx := range stmt {
		if tx.Kind == accounting.TxCheckDeposited {
			cleared++
		}
	}
	if cleared < len(ackedNumbers) {
		t.Fatalf("standby cleared %d checks, acked %d — acknowledged payments were lost",
			cleared, len(ackedNumbers))
	}
	balance := func(account string, who principal.ID) int64 {
		t.Helper()
		got, err := ws.bank.Balance(account, "dollars", []principal.ID{who})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := balance("service", ws.srv.ID); got != int64(cleared)*crashAmount {
		t.Errorf("service balance = %d, want %d", got, int64(cleared)*crashAmount)
	}
	if got := balance("carol", ws.carol.ID); got != crashMint-int64(cleared)*crashAmount {
		t.Errorf("carol balance = %d, want %d", got, crashMint-int64(cleared)*crashAmount)
	}

	// The promoted standby accepts new traffic.
	if err := ws.depositNumbered("ck-post-failover"); err != nil {
		t.Fatalf("fresh deposit on promoted standby: %v", err)
	}

	// The deposed primary is fenced off. Restart it in-process from its
	// own ledger directory — it comes back still believing its old term
	// — then deliver the new term, as `proxyctl promote` would.
	wp := newCrashWorld(t)
	if _, err := wp.bank.OpenLedger(ledger.Options{
		Dir: filepath.Join(dir, "primary"), Fsync: ledger.FsyncAlways,
	}); err != nil {
		t.Fatalf("deposed primary recovery: %v", err)
	}
	defer wp.bank.CloseLedger()
	pNode, err := repl.NewNode(repl.Config{SM: wp.bank, Dir: filepath.Join(dir, "primary")})
	if err != nil {
		t.Fatal(err)
	}
	defer pNode.Close()
	if pNode.Term() != oldTerm {
		t.Fatalf("restarted deposed primary term = %d, want %d", pNode.Term(), oldTerm)
	}
	if _, err := pNode.Fence(newTerm); err != nil {
		t.Fatal(err)
	}
	if err := wp.depositNumbered("ck-deposed-write"); !repl.IsFenced(err) {
		t.Fatalf("deposed primary deposit = %v, want fenced", err)
	}
	if err := wp.bank.Mint("carol", "dollars", 1); !repl.IsFenced(err) {
		t.Fatalf("deposed primary mint = %v, want fenced", err)
	}
	// And its fenced term survives another restart.
	if got, err := repl.LoadTerm(filepath.Join(dir, "primary")); err != nil || got != newTerm {
		t.Fatalf("persisted deposed term = %d, %v, want %d", got, err, newTerm)
	}
}

// readAckedNumbers returns the complete lines of the acked file; a torn
// final line (the kill can land mid-write) is ignored — its deposit was
// never acknowledged.
func readAckedNumbers(t *testing.T, path string) []string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	end := strings.LastIndexByte(string(raw), '\n')
	if end < 0 {
		return nil
	}
	var numbers []string
	sc := bufio.NewScanner(strings.NewReader(string(raw[:end+1])))
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			numbers = append(numbers, line)
		}
	}
	return numbers
}
