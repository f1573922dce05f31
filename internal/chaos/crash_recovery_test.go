package chaos

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"proxykit/internal/accounting"
	"proxykit/internal/audit"
	"proxykit/internal/clock"
	"proxykit/internal/faultpoint"
	"proxykit/internal/ledger"
	"proxykit/internal/obs"
	"proxykit/internal/principal"
	"proxykit/internal/pubkey"
)

// The crash-recovery suite SIGKILLs a bank mid-clearing and proves the
// restarted bank refuses to honor already-paid check numbers and that
// its books still balance against the audit journal. The child process
// (TestCrashRecoveryChild) runs the bank and dies at a WAL append
// boundary chosen by a seeded fault injector; the parent replays the
// WAL in-process and audits the wreckage.
//
// Identities are derived from fixed seeds so the parent can reconstruct
// the child's world: recovery needs the same bank identity the WAL
// records were written under.

const (
	crashRealm    = "CRASH.ORG"
	crashMint     = 100_000
	crashAmount   = 10
	crashMaxSteps = 500
)

// crashWorld is the single-bank economy shared by child and parent:
// carol and the service both bank at one ledgered drawee, so every
// cleared check is a local redeem — exactly one WAL record.
type crashWorld struct {
	clk   *clock.Fake
	dir   *pubkey.Directory
	bank  *accounting.Server
	carol *pubkey.Identity
	srv   *pubkey.Identity
}

func newCrashWorld(t *testing.T) *crashWorld {
	t.Helper()
	w := &crashWorld{
		clk: clock.NewFake(time.Unix(19_000_000, 0)),
		dir: pubkey.NewDirectory(),
	}
	seeded := func(name string, fill byte) *pubkey.Identity {
		id := principal.New(name, crashRealm)
		ident, err := pubkey.IdentityFromSeed(id, bytes.Repeat([]byte{fill}, 32))
		if err != nil {
			t.Fatal(err)
		}
		w.dir.RegisterIdentity(ident)
		return ident
	}
	w.carol = seeded("carol", 0xC1)
	w.srv = seeded("service", 0xC2)
	bankIdent := seeded("bank", 0xC3)
	w.bank = accounting.NewServer(bankIdent, w.dir.Resolver(), w.clk)
	return w
}

func crashCheckNumber(i int) string { return fmt.Sprintf("ck-%03d", i) }

// depositNumbered writes a check carol -> service with a fixed number
// and presents it for deposit at the (single) bank.
func (w *crashWorld) depositNumbered(number string) error {
	c, err := accounting.WriteCheck(accounting.WriteCheckParams{
		Payor:    w.carol,
		Bank:     w.bank.ID,
		Account:  "carol",
		Payee:    w.srv.ID,
		Currency: "dollars",
		Amount:   crashAmount,
		Lifetime: time.Hour,
		Clock:    w.clk,
		Number:   number,
	})
	if err != nil {
		return err
	}
	endorsed, err := c.Endorse(w.srv, w.bank.ID, w.bank.ID, w.bank.Global("service"), false, w.clk)
	if err != nil {
		return err
	}
	_, err = w.bank.DepositCheck(endorsed, []principal.ID{w.srv.ID}, "service")
	return err
}

// TestCrashRecoveryChild is the process that dies. It only does real
// work when re-executed by TestCrashRecoveryUnderSIGKILL; the append
// hook SIGKILLs the process at a fault-injector-chosen WAL boundary
// once at least three checks have cleared.
func TestCrashRecoveryChild(t *testing.T) {
	dir := os.Getenv("CHAOS_CRASH_DIR")
	if dir == "" {
		t.Skip("child-only test")
	}
	seed, err := strconv.ParseInt(os.Getenv("CHAOS_CRASH_SEED"), 10, 64)
	if err != nil {
		t.Fatal(err)
	}

	w := newCrashWorld(t)
	journal, err := audit.New(audit.Options{Path: filepath.Join(dir, "audit.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.bank.OpenLedger(ledger.Options{
		Dir:   filepath.Join(dir, "ledger"),
		Fsync: ledger.FsyncAlways,
	}); err != nil {
		t.Fatal(err)
	}
	w.bank.SetJournal(journal)

	if err := w.bank.CreateAccount("carol", w.carol.ID); err != nil {
		t.Fatal(err)
	}
	if err := w.bank.CreateAccount("service", w.srv.ID); err != nil {
		t.Fatal(err)
	}
	if err := w.bank.Mint("carol", "dollars", crashMint); err != nil {
		t.Fatal(err)
	}

	// Arm the crash. The hook fires after the WAL frame is durable but
	// before the in-memory mutation and before the journal record — the
	// worst instant: the recovered bank must honor a payment its own
	// journal never saw. The gate (three cleared checks) keeps the
	// setup records intact so recovery always has balances to check.
	var cleared atomic.Int64
	inj := faultpoint.New(seed, faultpoint.Rule{Method: "ledger.crash", Err: 0.2})
	w.bank.Ledger().SetAppendHook(func(uint64) {
		if cleared.Load() >= 3 && inj.Decide("ledger.crash").Action == faultpoint.ActError {
			_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
			select {} // never proceed past the crash point
		}
	})

	for i := 0; i < crashMaxSteps; i++ {
		if err := w.depositNumbered(crashCheckNumber(i)); err != nil {
			t.Fatalf("deposit %d: %v", i, err)
		}
		cleared.Add(1)
	}
	// Surviving all steps means the injector never fired — the parent
	// treats that as a failed run rather than silently passing.
	if err := os.WriteFile(filepath.Join(dir, "completed"), []byte("no crash\n"), 0o600); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecoveryUnderSIGKILL(t *testing.T) {
	if os.Getenv("CHAOS_CRASH_DIR") != "" {
		return // child run; work happens in TestCrashRecoveryChild
	}
	if testing.Short() {
		t.Skip("multi-process crash test in -short mode")
	}
	const seed = 42
	dir := t.TempDir()

	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashRecoveryChild$", "-test.v")
	cmd.Env = append(os.Environ(),
		"CHAOS_CRASH_DIR="+dir,
		fmt.Sprintf("CHAOS_CRASH_SEED=%d", seed))
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("child was not killed; output:\n%s", out)
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("child failed to run: %v\n%s", err, out)
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("child died, but not by SIGKILL: %v\n%s", err, out)
	}
	if _, err := os.Stat(filepath.Join(dir, "completed")); !os.IsNotExist(err) {
		t.Fatalf("child completed all %d steps without crashing", crashMaxSteps)
	}

	// Recover: a fresh bank process (this one) replays the WAL.
	w := newCrashWorld(t)
	rec, err := w.bank.OpenLedger(ledger.Options{
		Dir:   filepath.Join(dir, "ledger"),
		Fsync: ledger.FsyncAlways,
	})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer w.bank.CloseLedger()
	if rec.Replayed() == 0 {
		t.Fatal("recovery replayed no WAL records")
	}

	// How many checks cleared according to the recovered books?
	stmt, err := w.bank.Statement("service", []principal.ID{w.srv.ID})
	if err != nil {
		t.Fatal(err)
	}
	cleared := 0
	for _, tx := range stmt {
		if tx.Kind == accounting.TxCheckDeposited {
			cleared++
		}
	}
	if cleared < 3 {
		t.Fatalf("only %d checks cleared before the crash; want >= 3", cleared)
	}
	t.Logf("recovered: %d WAL records, %d cleared checks, tornTail=%v",
		rec.Replayed(), cleared, rec.TornTail)

	// Books balance: every cleared check moved crashAmount from carol
	// to the service, including the one in flight at the crash.
	assertBalance := func(account string, who principal.ID, want int64) {
		t.Helper()
		got, err := w.bank.Balance(account, "dollars", []principal.ID{who})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s balance = %d, want %d", account, got, want)
		}
	}
	assertBalance("service", w.srv.ID, int64(cleared)*crashAmount)
	assertBalance("carol", w.carol.ID, crashMint-int64(cleared)*crashAmount)

	// The restarted bank must refuse every already-paid check number —
	// including the final one, whose clearing the journal never saw.
	for i := 0; i < cleared; i++ {
		err := w.depositNumbered(crashCheckNumber(i))
		if !errors.Is(err, accounting.ErrDuplicateCheck) {
			t.Fatalf("re-presented %s after recovery: err = %v, want ErrDuplicateCheck",
				crashCheckNumber(i), err)
		}
	}
	// ...while a never-seen number still clears.
	if err := w.depositNumbered("ck-fresh"); err != nil {
		t.Fatalf("fresh check after recovery: %v", err)
	}
	assertBalance("service", w.srv.ID, int64(cleared+1)*crashAmount)

	// The journal's hash chain survived the kill, and it records every
	// cleared check except the one in flight: the WAL frame became
	// durable before the journal write, so recovery is exactly one
	// payment ahead of the journal — never behind it.
	journalDeposits := verifyCrashJournal(t, filepath.Join(dir, "audit.jsonl"))
	if journalDeposits != cleared-1 {
		t.Errorf("journal records %d cleared checks, recovered books show %d; want books = journal+1",
			journalDeposits, cleared)
	}

	// Recovery is observable: the replay counter moved in this process.
	if n := metricValue(t, "proxykit_ledger_replay_records_total"); n <= 0 {
		t.Errorf("proxykit_ledger_replay_records_total = %v, want > 0", n)
	}
}

// verifyCrashJournal checks the journal's hash chain, tolerating a torn
// final line (a SIGKILL can truncate at most the last record), and
// returns the number of granted deposit records.
func verifyCrashJournal(t *testing.T, path string) int {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := audit.VerifyReader(bytes.NewReader(raw)); err != nil {
		// Drop a torn final line and re-verify; anything else is real
		// corruption and fails the test.
		trimmed := raw
		if i := bytes.LastIndexByte(bytes.TrimRight(trimmed, "\n"), '\n'); i >= 0 {
			trimmed = trimmed[:i+1]
		}
		if _, err2 := audit.VerifyReader(bytes.NewReader(trimmed)); err2 != nil {
			t.Fatalf("journal chain broken beyond a torn tail: %v (full-file error: %v)", err2, err)
		}
		raw = trimmed
	}
	deposits := 0
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		var rec struct {
			Kind    string `json:"kind"`
			Outcome string `json:"outcome"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue // torn tail already handled above
		}
		if rec.Kind == audit.KindDeposit && rec.Outcome == audit.OutcomeGranted.String() {
			deposits++
		}
	}
	return deposits
}

// metricValue reads one unlabeled metric from the process-global
// registry via its JSON rendering.
func metricValue(t *testing.T, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doc := map[string]any{}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	v, ok := doc[name].(float64)
	if !ok {
		t.Fatalf("metric %s missing or not scalar: %v", name, doc[name])
	}
	return v
}

// awaitFile polls until path exists: the ready-file handshake a child
// daemon completes once it has recovered its state and is serving.
func awaitFile(path string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if _, err := os.Stat(path); err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: %s not ready after %v", path, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
