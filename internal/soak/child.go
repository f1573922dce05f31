package soak

// The child bank: a ledger-backed accounting daemon running as a real
// OS process that the harness SIGKILLs and restarts on a timer, the
// crash-recovery discipline from internal/chaos generalized into a
// continuous cycle. Its economy (alice pays bob numbered checks) is
// disjoint from the main topology's, so the parent can audit it to the
// dollar at every crash: recover the WAL on a copy, check conservation
// and the journal chain, re-present the last paid check and demand
// ErrDuplicateCheck — then restart the child and demand the same
// refusal over RPC.
//
// The child is this same test binary re-exec'd: maybeRunChild, called
// from the package's TestMain, intercepts processes launched with
// SOAK_CHILD_DIR set.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
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
	"proxykit/internal/svc"
	"proxykit/internal/transport"
)

const (
	childRealm = "SOAK-CHILD.ORG"
	childMint  = 1_000_000_000_000
	// childEnvDir and childEnvAddr gate maybeRunChild.
	childEnvDir  = "SOAK_CHILD_DIR"
	childEnvAddr = "SOAK_CHILD_ADDR"
)

// childWorld is the child bank's economy, reconstructible from fixed
// identity seeds on both sides of the process boundary: recovery needs
// the same bank identity the WAL records were written under.
type childWorld struct {
	dir   *pubkey.Directory
	bank  *accounting.Server
	alice *pubkey.Identity
	bob   *pubkey.Identity
}

func newChildWorld() (*childWorld, error) {
	w := &childWorld{dir: pubkey.NewDirectory()}
	seeded := func(name string, fill byte) (*pubkey.Identity, error) {
		ident, err := pubkey.IdentityFromSeed(principal.New(name, childRealm), bytes.Repeat([]byte{fill}, 32))
		if err != nil {
			return nil, err
		}
		w.dir.RegisterIdentity(ident)
		return ident, nil
	}
	var err error
	if w.alice, err = seeded("alice", 0x5A); err != nil {
		return nil, err
	}
	if w.bob, err = seeded("bob", 0x5B); err != nil {
		return nil, err
	}
	bankIdent, err := seeded("bank", 0x5C)
	if err != nil {
		return nil, err
	}
	w.bank = accounting.NewServer(bankIdent, w.dir.Resolver(), nil)
	return w, nil
}

// open recovers (or freshly provisions) the bank from dir's ledger and
// journal. A torn journal tail — the expected wreckage of a SIGKILL
// mid-append — is repaired before replay; deeper damage is an error.
func (w *childWorld) open(dir string) (*ledger.Recovery, error) {
	journalPath := filepath.Join(dir, "audit.jsonl")
	if _, err := audit.RepairTornTail(journalPath); err != nil {
		return nil, err
	}
	rec, err := w.bank.OpenLedger(ledger.Options{
		Dir:   filepath.Join(dir, "ledger"),
		Fsync: ledger.FsyncAlways,
	})
	if err != nil {
		return nil, err
	}
	j, err := audit.New(audit.Options{Path: journalPath})
	if err != nil {
		return nil, err
	}
	w.bank.SetJournal(j)
	if rec.SnapshotSeq == 0 && rec.Replayed() == 0 {
		// First boot, not a recovery: provision the economy. A crashed
		// child always leaves WAL records behind (provisioning itself
		// is ledgered), so this never re-mints after a crash.
		if err := w.bank.CreateAccount("alice", w.alice.ID); err != nil {
			return nil, err
		}
		if err := w.bank.CreateAccount("bob", w.bob.ID); err != nil {
			return nil, err
		}
		if err := w.bank.Mint("alice", "dollars", childMint); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// writeNumbered writes and endorses check number num, alice -> bob.
func (w *childWorld) writeNumbered(num string, amount int64) (*accounting.Check, error) {
	c, err := accounting.WriteCheck(accounting.WriteCheckParams{
		Payor:    w.alice,
		Bank:     w.bank.ID,
		Account:  "alice",
		Payee:    w.bob.ID,
		Currency: "dollars",
		Amount:   amount,
		Lifetime: time.Hour,
		Number:   num,
	})
	if err != nil {
		return nil, err
	}
	return c.Endorse(w.bob, w.bank.ID, w.bank.ID, w.bank.Global("bob"), false, nil)
}

// maybeRunChild turns this process into the soak child bank when
// SOAK_CHILD_DIR is set, never returning. TestMain calls it first thing
// so a re-exec'd child skips the test suite entirely; in the parent it
// returns at once.
func maybeRunChild() {
	dir := os.Getenv(childEnvDir)
	if dir == "" {
		return
	}
	if err := runChild(dir, os.Getenv(childEnvAddr)); err != nil {
		fmt.Fprintln(os.Stderr, "soak child:", err)
		os.Exit(1)
	}
	select {} // serve until SIGKILLed
}

func runChild(dir, addr string) error {
	w, err := newChildWorld()
	if err != nil {
		return err
	}
	if _, err := w.open(dir); err != nil {
		return err
	}
	w.bank.StartSnapshotter(2 * time.Second)
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	mux := svc.NewAcctService(w.bank, w.dir.Resolver(), nil).Mux()
	// The child ships its WAL (asynchronously) to the parent-side
	// standby, which is promoted after each SIGKILL.
	node, err := repl.NewNode(repl.Config{SM: w.bank, Dir: filepath.Join(dir, "ledger")})
	if err != nil {
		return err
	}
	node.Mount(mux)
	transport.NewTCPServer(l, mux)
	// The ready file is the recovery handshake: state replayed, socket
	// listening. The parent removes it before each restart.
	return os.WriteFile(filepath.Join(dir, "ready"), []byte("ok\n"), 0o600)
}

// childCtl is the parent-side controller for the child bank.
type childCtl struct {
	h     *harness
	dir   string
	addr  string
	world *childWorld // for check-writing and offline audits; no ledger attached
	proc  *chaos.Proc
	bankC *svc.AcctClient

	seq      atomic.Int64
	lastPaid atomic.Value // string: highest check number known paid

	standby *standbyCtl
}

// standbyCtl is the in-process hot standby of the child bank: a full
// replica (own ledger, own repl node) tailing the child's WAL over TCP,
// promoted after each SIGKILL and discarded once audited.
type standbyCtl struct {
	dir   string
	world *childWorld
	conn  *transport.TCPClient
	node  *repl.Node
}

func startChild(h *harness) (*childCtl, error) {
	dir, err := os.MkdirTemp("", "soak-child-")
	if err != nil {
		return nil, err
	}
	world, err := newChildWorld()
	if err != nil {
		return nil, err
	}
	// Pre-pick a fixed port so the auto-redialing client and every
	// restarted child agree on the address.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	_ = l.Close()
	c := &childCtl{h: h, dir: dir, addr: addr, world: world}
	if err := c.spawn(); err != nil {
		return nil, err
	}
	conn, err := transport.DialTCP(addr, 5*time.Second)
	if err != nil {
		c.stop()
		return nil, err
	}
	c.bankC = svc.NewAcctClient(conn, world.bob, nil)
	if err := c.attachStandby(); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// attachStandby starts a fresh hot standby replicating from the child.
// Its ledger starts empty: the whole economy — provisioning included —
// arrives through the shipping stream (or a snapshot install when the
// child's snapshotter has already truncated the WAL).
func (c *childCtl) attachStandby() error {
	dir, err := os.MkdirTemp("", "soak-standby-")
	if err != nil {
		return err
	}
	world, err := newChildWorld()
	if err != nil {
		os.RemoveAll(dir)
		return err
	}
	if _, err := world.bank.OpenLedger(ledger.Options{Dir: filepath.Join(dir, "ledger"), Fsync: ledger.FsyncOff}); err != nil {
		os.RemoveAll(dir)
		return err
	}
	conn, err := transport.DialTCP(c.addr, 5*time.Second)
	if err != nil {
		world.bank.CloseLedger()
		os.RemoveAll(dir)
		return err
	}
	node, err := repl.NewNode(repl.Config{
		SM:        world.bank,
		Dir:       filepath.Join(dir, "ledger"),
		Standby:   true,
		Source:    conn,
		PullWait:  100 * time.Millisecond,
		RetryWait: 50 * time.Millisecond,
	})
	if err != nil {
		conn.Close()
		world.bank.CloseLedger()
		os.RemoveAll(dir)
		return err
	}
	c.standby = &standbyCtl{dir: dir, world: world, conn: conn, node: node}
	return nil
}

func (c *childCtl) detachStandby() {
	s := c.standby
	if s == nil {
		return
	}
	c.standby = nil
	s.node.Close()
	s.conn.Close()
	s.world.bank.CloseLedger()
	_ = os.RemoveAll(s.dir)
}

// awaitStandbyCaughtUp blocks until the standby's WAL position reaches
// the child's position as of the call. Load keeps the child's position
// moving, but anything acknowledged before this snapshot — the last
// paid check in particular — is on the standby once it returns.
func (c *childCtl) awaitStandbyCaughtUp(timeout time.Duration) error {
	conn, err := transport.DialTCP(c.addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	st, err := repl.NewClient(conn).Status()
	if err != nil {
		return err
	}
	deadline := time.Now().Add(timeout)
	for c.standby.node.Status().LastSeq < st.LastSeq {
		if time.Now().After(deadline) {
			return fmt.Errorf("standby stuck at seq %d, child at %d after %s",
				c.standby.node.Status().LastSeq, st.LastSeq, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// failoverAudit promotes the standby over the dead child and audits the
// new primary: the read-only gate held until promotion, the fencing
// term advanced, the books conserve, the last acknowledged check is
// refused (accept-once survives failover), and fresh writes clear.
func (c *childCtl) failoverAudit(cycle int, refuseNum string) error {
	s := c.standby
	gateCheck, err := s.world.writeNumbered(fmt.Sprintf("failover-%06d-gate", cycle), 1)
	if err != nil {
		return err
	}
	if _, err := s.world.bank.DepositCheck(gateCheck, []principal.ID{s.world.bob.ID}, "bob"); !errors.Is(err, repl.ErrNotPrimary) {
		return fmt.Errorf("standby admitted a local mutation before promotion (err=%v)", err)
	}
	oldTerm := s.node.Term()
	newTerm, err := s.node.Promote()
	if err != nil {
		return fmt.Errorf("promote: %w", err)
	}
	if newTerm <= oldTerm {
		return fmt.Errorf("promotion did not advance the term: %d -> %d", oldTerm, newTerm)
	}
	t := s.world.bank.Totals()
	if got := t.Balances["dollars"] + t.Uncollected["dollars"] + t.Held["dollars"]; got != childMint {
		return fmt.Errorf("conservation violated on promoted standby: books hold %d, minted %d", got, childMint)
	}
	if refuseNum != "" {
		endorsed, err := s.world.writeNumbered(refuseNum, 1)
		if err != nil {
			return err
		}
		if _, err := s.world.bank.DepositCheck(endorsed, []principal.ID{s.world.bob.ID}, "bob"); !errors.Is(err, accounting.ErrDuplicateCheck) {
			return fmt.Errorf("promoted standby honored already-paid check %q (err=%v)", refuseNum, err)
		}
	}
	fresh, err := s.world.writeNumbered(fmt.Sprintf("failover-%06d-fresh", cycle), 1)
	if err != nil {
		return err
	}
	if _, err := s.world.bank.DepositCheck(fresh, []principal.ID{s.world.bob.ID}, "bob"); err != nil {
		return fmt.Errorf("promoted standby refused a fresh deposit: %w", err)
	}
	return nil
}

func (c *childCtl) readyPath() string { return filepath.Join(c.dir, "ready") }

func (c *childCtl) spawn() error {
	proc, err := chaos.StartProc(os.Args[0], nil, []string{
		childEnvDir + "=" + c.dir,
		childEnvAddr + "=" + c.addr,
	})
	if err != nil {
		return err
	}
	c.proc = proc
	if err := chaos.AwaitFile(c.readyPath(), 15*time.Second); err != nil {
		proc.Stop()
		return err
	}
	return nil
}

func (c *childCtl) stop() {
	c.detachStandby()
	if c.proc != nil {
		c.proc.Stop()
	}
	_ = os.RemoveAll(c.dir)
}

// deposit pays bob the next numbered check over RPC. A duplicate
// rejection is a lost acknowledgment for a payment that happened —
// §7.7's accept-once-as-ack — so it counts as success.
func (c *childCtl) deposit(amount int64) error {
	num := fmt.Sprintf("soak-%06d", c.seq.Add(1))
	endorsed, err := c.world.writeNumbered(num, amount)
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

	if err := c.failoverAudit(crash, refuseNum); err != nil {
		c.detachStandby()
		return fmt.Errorf("failover audit (cycle %d): %w", crash, err)
	}
	c.detachStandby()
	c.h.mu.Lock()
	c.h.failovers++
	c.h.mu.Unlock()
	c.h.logf("soak: crash cycle %d: standby promoted, audited, and retired", crash)

	if err := c.auditOffline(); err != nil {
		return fmt.Errorf("post-crash audit (cycle %d): %w", crash, err)
	}

	if err := os.Remove(c.readyPath()); err != nil {
		return err
	}
	if err := c.spawn(); err != nil {
		return fmt.Errorf("restart (cycle %d): %w", crash, err)
	}

	// The recovered daemon must refuse the last paid number over RPC.
	if num, ok := c.lastPaid.Load().(string); ok {
		endorsed, err := c.world.writeNumbered(num, 1)
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

// auditOffline replays the dead child's WAL on a copy and audits the
// wreckage: books balance to the dollar, the journal chain holds (torn
// tail at most), and the last paid check is refused on repl. The copy
// keeps the audit from perturbing the state the restarted child will
// recover from.
func (c *childCtl) auditOffline() error {
	tmp, err := os.MkdirTemp("", "soak-audit-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if err := copyDir(filepath.Join(c.dir, "ledger"), filepath.Join(tmp, "ledger")); err != nil {
		return err
	}
	if err := copyFile(filepath.Join(c.dir, "audit.jsonl"), filepath.Join(tmp, "audit.jsonl")); err != nil && !os.IsNotExist(err) {
		return err
	}

	w, err := newChildWorld()
	if err != nil {
		return err
	}
	if _, err := w.open(tmp); err != nil {
		return fmt.Errorf("recovery replay failed: %w", err)
	}
	defer w.bank.CloseLedger()

	// Conservation: alice + bob must still hold exactly the mint.
	t := w.bank.Totals()
	if got := t.Balances["dollars"] + t.Uncollected["dollars"] + t.Held["dollars"]; got != childMint {
		return fmt.Errorf("conservation violated in child bank: recovered books hold %d, minted %d", got, childMint)
	}

	// The journal chain verified during open (torn tail repaired). The
	// recovered books must refuse the last paid number.
	if num, ok := c.lastPaid.Load().(string); ok {
		endorsed, err := w.writeNumbered(num, 1)
		if err != nil {
			return err
		}
		if _, err := w.bank.DepositCheck(endorsed, []principal.ID{w.bob.ID}, "bob"); !errors.Is(err, accounting.ErrDuplicateCheck) {
			return fmt.Errorf("recovered WAL honored already-paid check %q (err=%v)", num, err)
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
