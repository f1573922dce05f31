package soak

// The child bank: the real cmd/acctd binary, run as an OS process that
// the harness SIGKILLs and restarts on a timer — the crash-recovery
// discipline from internal/chaos generalized into a continuous cycle.
// Its economy (alice pays bob numbered checks) is disjoint from the main
// topology's, so the parent can audit it to the dollar at every crash.
//
// The harness provisions it as an operator would: identities in a state
// directory and an -accounts file that acctd re-reads on every restart.
// A second `acctd -standby` with the same identity tails the child's
// WAL. After each SIGKILL the standby is promoted over repl.promote,
// audited over RPC, and SIGKILLed in turn; one offline audit then checks
// both dead processes' ledgers — recover a copy, check conservation and
// the journal chain, re-present the last paid check and demand
// ErrDuplicateCheck. Finally the child restarts and must refuse the same
// check over RPC.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"proxykit/internal/accounting"
	"proxykit/internal/audit"
	"proxykit/internal/chaos"
	"proxykit/internal/ledger"
	"proxykit/internal/principal"
	"proxykit/internal/pubkey"
	"proxykit/internal/repl"
	"proxykit/internal/statefile"
	"proxykit/internal/svc"
	"proxykit/internal/transport"
)

const (
	childRealm = "SOAK-CHILD.ORG"
	childMint  = 1_000_000_000_000
)

// childCtl is the parent-side controller for the child bank. Its dir
// holds the acctd binary, the shared state directory, the accounts
// file, the child's ledger and journal, and the standby's directory.
type childCtl struct {
	h      *harness
	dir    string
	addr   string
	bankID principal.ID
	alice  *pubkey.Identity
	bob    *pubkey.Identity
	proc   *chaos.Proc
	conn   *transport.TCPClient
	bankC  *svc.AcctClient

	seq      atomic.Int64
	lastPaid atomic.Value // string: highest check number known paid

	standby *standbyCtl
}

// standbyCtl is the child's hot standby: a second acctd loading the same
// bank identity, replicating from an empty ledger, promoted after each
// SIGKILL and discarded once audited.
type standbyCtl struct {
	dir  string
	proc *chaos.Proc
	conn *transport.TCPClient
}

func startChild(h *harness) (*childCtl, error) {
	dir, err := os.MkdirTemp("", "soak-child-")
	if err != nil {
		return nil, err
	}
	c := &childCtl{h: h, dir: dir}
	if err := c.start(); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func (c *childCtl) start() error {
	if err := buildAcctd(c.bin()); err != nil {
		return err
	}
	if err := c.provision(); err != nil {
		return err
	}
	// A fixed port, so the auto-redialing client and every restarted
	// child agree on the address.
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	c.addr = addr
	if err := c.spawn(); err != nil {
		return err
	}
	if c.conn, err = transport.DialTCP(addr, 5*time.Second); err != nil {
		return err
	}
	c.bankC = svc.NewAcctClient(c.conn, c.bob, nil)
	return c.attachStandby()
}

// buildAcctd compiles cmd/acctd to bin. The import path resolves from
// the package directory go test runs in; the build cache makes this
// cheap after the first build of a tree.
func buildAcctd(bin string) error {
	out, err := exec.Command("go", "build", "-o", bin, "proxykit/cmd/acctd").CombinedOutput()
	if err != nil {
		return fmt.Errorf("build acctd: %w\n%s", err, out)
	}
	return nil
}

func (c *childCtl) bin() string      { return filepath.Join(c.dir, "acctd") }
func (c *childCtl) stateDir() string { return filepath.Join(c.dir, "state") }
func (c *childCtl) accounts() string { return filepath.Join(c.dir, "accounts.json") }

// provision creates the economy's identities and the accounts file:
// alice holds the whole mint, bob starts empty.
func (c *childCtl) provision() error {
	var err error
	if c.alice, err = statefile.CreateIdentity(c.stateDir(), principal.New("alice", childRealm)); err != nil {
		return err
	}
	if c.bob, err = statefile.CreateIdentity(c.stateDir(), principal.New("bob", childRealm)); err != nil {
		return err
	}
	bank, err := statefile.CreateIdentity(c.stateDir(), principal.New("bank", childRealm))
	if err != nil {
		return err
	}
	c.bankID = bank.ID
	raw, err := json.Marshal([]map[string]any{
		{"name": "alice", "owner": c.alice.ID.String(), "mint": map[string]int64{"dollars": childMint}},
		{"name": "bob", "owner": c.bob.ID.String()},
	})
	if err != nil {
		return err
	}
	return os.WriteFile(c.accounts(), raw, 0o600)
}

// runAcctd starts acctd with the flags both roles share plus extra, its
// ledger and journal under dir, and waits for it to serve on addr.
func (c *childCtl) runAcctd(dir, addr string, extra ...string) (*chaos.Proc, error) {
	args := append([]string{
		"-state", c.stateDir(), "-realm", childRealm, "-name", "bank",
		"-listen", addr,
		"-ledger-dir", filepath.Join(dir, "ledger"), "-fsync", "always", "-snapshot-interval", "2s",
		"-audit-file", filepath.Join(dir, "audit.jsonl"),
		"-log-level", "warn",
	}, extra...)
	proc, err := chaos.StartProc(c.bin(), args, nil)
	if err != nil {
		return nil, err
	}
	if err := awaitListening(addr, 15*time.Second); err != nil {
		proc.Stop()
		return nil, err
	}
	return proc, nil
}

// awaitListening polls addr until it accepts a TCP connection. acctd
// opens its RPC listener only after recovery, provisioning and its repl
// node are up, so an accepted connection is the recovery handshake.
func awaitListening(addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		conn, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err == nil {
			return conn.Close()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("acctd not serving on %s after %v: %w", addr, timeout, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

func (c *childCtl) spawn() error {
	proc, err := c.runAcctd(c.dir, c.addr, "-accounts", c.accounts())
	if err != nil {
		return err
	}
	c.proc = proc
	return nil
}

// attachStandby starts a fresh hot standby replicating from the child.
// Its ledger starts empty: the whole economy — provisioning included —
// arrives through the shipping stream (or a snapshot install when the
// child's snapshotter has already truncated the WAL).
func (c *childCtl) attachStandby() error {
	dir := filepath.Join(c.dir, "standby")
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return err
	}
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	proc, err := c.runAcctd(dir, addr, "-standby", "-replicate-from", c.addr)
	if err != nil {
		return err
	}
	conn, err := transport.DialTCP(addr, 5*time.Second)
	if err != nil {
		proc.Stop()
		return err
	}
	c.standby = &standbyCtl{dir: dir, proc: proc, conn: conn}
	return nil
}

func (c *childCtl) detachStandby() {
	s := c.standby
	if s == nil {
		return
	}
	c.standby = nil
	s.proc.Stop()
	s.conn.Close()
	_ = os.RemoveAll(s.dir)
}

// awaitStandbyCaughtUp blocks until the standby's WAL position reaches
// the child's position as of the call. Load keeps the child's position
// moving, but anything acknowledged before this snapshot — the last
// paid check in particular — is on the standby once it returns.
func (c *childCtl) awaitStandbyCaughtUp(timeout time.Duration) error {
	child, err := repl.NewClient(c.conn).Status()
	if err != nil {
		return err
	}
	standby := repl.NewClient(c.standby.conn)
	deadline := time.Now().Add(timeout)
	for {
		st, err := standby.Status()
		if err != nil {
			return err
		}
		if st.LastSeq >= child.LastSeq {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("standby stuck at seq %d, child at %d after %s", st.LastSeq, child.LastSeq, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// failoverAudit promotes the standby over the dead child and audits the
// new primary over RPC — the read-only gate held until promotion, the
// fencing term advanced, the last acknowledged check is refused
// (accept-once survives failover), and fresh writes clear — then
// SIGKILLs it and audits its ledger offline.
func (c *childCtl) failoverAudit(cycle int, refuseNum string) error {
	s := c.standby
	bank := svc.NewAcctClient(s.conn, c.bob, nil)
	gate, err := c.writeNumbered(fmt.Sprintf("failover-%06d-gate", cycle), 1)
	if err != nil {
		return err
	}
	if _, err := bank.DepositCheck(gate, "bob"); err == nil || !strings.Contains(err.Error(), "not primary") {
		return fmt.Errorf("standby admitted a deposit before promotion (err=%v)", err)
	}
	rc := repl.NewClient(s.conn)
	st, err := rc.Status()
	if err != nil {
		return err
	}
	newTerm, err := rc.Promote()
	if err != nil {
		return fmt.Errorf("promote: %w", err)
	}
	if newTerm <= st.Term {
		return fmt.Errorf("promotion did not advance the term: %d -> %d", st.Term, newTerm)
	}
	if refuseNum != "" {
		endorsed, err := c.writeNumbered(refuseNum, 1)
		if err != nil {
			return err
		}
		if _, err := bank.DepositCheck(endorsed, "bob"); err == nil || !strings.Contains(err.Error(), "duplicate") {
			return fmt.Errorf("promoted standby honored already-paid check %q (err=%v)", refuseNum, err)
		}
	}
	fresh, err := c.writeNumbered(fmt.Sprintf("failover-%06d-fresh", cycle), 1)
	if err != nil {
		return err
	}
	if _, err := bank.DepositCheck(fresh, "bob"); err != nil {
		return fmt.Errorf("promoted standby refused a fresh deposit: %w", err)
	}
	if err := s.proc.Kill(); err != nil {
		return err
	}
	if err := c.auditOffline(s.dir, refuseNum); err != nil {
		return fmt.Errorf("promoted standby after SIGKILL: %w", err)
	}
	return nil
}

func (c *childCtl) stop() {
	c.detachStandby()
	if c.proc != nil {
		c.proc.Stop()
	}
	if c.conn != nil {
		c.conn.Close()
	}
	_ = os.RemoveAll(c.dir)
}

// writeNumbered writes and endorses check number num, alice -> bob.
func (c *childCtl) writeNumbered(num string, amount int64) (*accounting.Check, error) {
	chk, err := accounting.WriteCheck(accounting.WriteCheckParams{
		Payor:    c.alice,
		Bank:     c.bankID,
		Account:  "alice",
		Payee:    c.bob.ID,
		Currency: "dollars",
		Amount:   amount,
		Lifetime: time.Hour,
		Number:   num,
	})
	if err != nil {
		return nil, err
	}
	return chk.Endorse(c.bob, c.bankID, c.bankID, principal.NewGlobal(c.bankID, "bob"), false, nil)
}

// deposit pays bob the next numbered check over RPC. A duplicate
// rejection is a lost acknowledgment for a payment that happened —
// §7.7's accept-once-as-ack — so it counts as success.
func (c *childCtl) deposit(amount int64) error {
	num := fmt.Sprintf("soak-%06d", c.seq.Add(1))
	endorsed, err := c.writeNumbered(num, amount)
	if err != nil {
		return err
	}
	_, err = c.bankC.DepositCheck(endorsed, "bob")
	if err != nil && !strings.Contains(err.Error(), "duplicate") {
		return err
	}
	c.lastPaid.Store(num)
	return nil
}

// crashOnce is one full SIGKILL/audit/recover cycle. Any assertion
// failure is an invariant violation and ends the run.
func (c *childCtl) crashOnce() error {
	// Pin the accept-once target before the kill: the last check known
	// paid is on the standby once catch-up returns, so the promoted
	// replica must refuse it later.
	refuseNum, _ := c.lastPaid.Load().(string)
	if err := c.awaitStandbyCaughtUp(10 * time.Second); err != nil {
		return fmt.Errorf("standby catch-up before failover: %w", err)
	}
	if err := c.proc.Kill(); err != nil {
		return err
	}
	c.h.mu.Lock()
	c.h.crashes++
	crash := c.h.crashes
	c.h.mu.Unlock()
	c.h.logf("soak: crash cycle %d: child bank SIGKILLed", crash)

	err := c.failoverAudit(crash, refuseNum)
	c.detachStandby()
	if err != nil {
		return fmt.Errorf("failover audit (cycle %d): %w", crash, err)
	}
	c.h.mu.Lock()
	c.h.failovers++
	c.h.mu.Unlock()
	c.h.logf("soak: crash cycle %d: standby promoted, audited, and retired", crash)

	// Every check the child acknowledged is on its disk (-fsync always),
	// so the dead child's ledger must refuse the newest one.
	lastPaid, _ := c.lastPaid.Load().(string)
	if err := c.auditOffline(c.dir, lastPaid); err != nil {
		return fmt.Errorf("post-crash audit (cycle %d): %w", crash, err)
	}

	if err := c.spawn(); err != nil {
		return fmt.Errorf("restart (cycle %d): %w", crash, err)
	}

	// The recovered daemon must refuse the last paid number over RPC.
	if num, ok := c.lastPaid.Load().(string); ok {
		endorsed, err := c.writeNumbered(num, 1)
		if err != nil {
			return err
		}
		var last error
		for attempt := 0; attempt < 5; attempt++ {
			_, err := c.bankC.DepositCheck(endorsed, "bob")
			if err == nil {
				return fmt.Errorf("recovered child bank honored already-paid check %q", num)
			}
			if strings.Contains(err.Error(), "duplicate") {
				last = nil
				break
			}
			last = err
			time.Sleep(100 * time.Millisecond)
		}
		if last != nil {
			return fmt.Errorf("re-presenting %q to recovered child bank: %w", num, last)
		}
	}
	if err := c.attachStandby(); err != nil {
		return fmt.Errorf("re-attach standby (cycle %d): %w", crash, err)
	}
	c.h.mu.Lock()
	c.h.recoveries++
	c.h.mu.Unlock()
	c.h.logf("soak: crash cycle %d: child bank recovered and refused replayed check", crash)
	return nil
}

// auditOffline recovers a dead acctd's ledger and journal from dir on a
// copy and audits the wreckage: the journal chain holds (a torn tail at
// most), books balance to the dollar, and check refuseNum, when set, is
// refused as a duplicate. The copy keeps the audit from perturbing the
// state a restarted acctd recovers from — including the torn tail it
// must repair itself.
func (c *childCtl) auditOffline(dir, refuseNum string) error {
	tmp, err := os.MkdirTemp("", "soak-audit-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if err := copyDir(filepath.Join(dir, "ledger"), filepath.Join(tmp, "ledger")); err != nil {
		return err
	}
	journal := filepath.Join(tmp, "audit.jsonl")
	if err := copyFile(filepath.Join(dir, "audit.jsonl"), journal); err != nil && !os.IsNotExist(err) {
		return err
	}
	// RepairTornTail walks the whole chain: it succeeds only if the
	// chain verifies once at most its final line is dropped.
	if _, err := audit.RepairTornTail(journal); err != nil {
		return err
	}

	ident, err := statefile.LoadIdentity(c.stateDir(), c.bankID)
	if err != nil {
		return err
	}
	bank := accounting.NewServer(ident, statefile.DynamicResolver(c.stateDir()), nil)
	if _, err := bank.OpenLedger(ledger.Options{Dir: filepath.Join(tmp, "ledger"), Fsync: ledger.FsyncAlways}); err != nil {
		return fmt.Errorf("recovery replay failed: %w", err)
	}
	defer bank.CloseLedger()

	// Conservation: alice + bob must still hold exactly the mint.
	t := bank.Totals()
	if got := t.Balances["dollars"] + t.Uncollected["dollars"] + t.Held["dollars"]; got != childMint {
		return fmt.Errorf("conservation violated: recovered books hold %d, minted %d", got, childMint)
	}
	if refuseNum != "" {
		endorsed, err := c.writeNumbered(refuseNum, 1)
		if err != nil {
			return err
		}
		if _, err := bank.DepositCheck(endorsed, []principal.ID{c.bob.ID}, "bob"); !errors.Is(err, accounting.ErrDuplicateCheck) {
			return fmt.Errorf("recovered WAL honored already-paid check %q (err=%v)", refuseNum, err)
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o700); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}
