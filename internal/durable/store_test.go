package durable

import (
	"errors"
	"os"
	"strings"
	"sync"
	"testing"

	"proxykit/internal/ledger"
)

// fakeMachine is an append-only list of records behind one mutex — the
// smallest Machine that lets the Store's contract be observed.
type fakeMachine struct {
	mu      sync.Mutex
	applied []string
}

func (m *fakeMachine) Apply(record []byte, logged func() error) error {
	if len(record) == 0 {
		return errors.New("fake: empty record")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := logged(); err != nil {
		return err
	}
	m.applied = append(m.applied, string(record))
	return nil
}

func (m *fakeMachine) Snapshot(captured func()) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	raw := []byte(`"` + strings.Join(m.applied, ",") + `"`)
	captured()
	return raw, nil
}

func (m *fakeMachine) Restore(state []byte, swapped func() error) error {
	s := string(state)
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return errors.New("fake: undecodable snapshot")
	}
	var applied []string
	if s != `""` {
		applied = strings.Split(s[1:len(s)-1], ",")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.applied = applied
	return swapped()
}

func (m *fakeMachine) Empty() bool { return m.len() == 0 }

func (m *fakeMachine) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.applied)
}

// commit is the live path a real server writes: hold the machine's
// lock across WriteAhead and the apply.
func (m *fakeMachine) commit(s *Store, record string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := s.WriteAhead(func() ([]byte, error) { return []byte(record), nil }); err != nil {
		return err
	}
	m.applied = append(m.applied, record)
	return nil
}

func newStore(t *testing.T, dir string) (*Store, *fakeMachine) {
	t.Helper()
	m := &fakeMachine{}
	s := &Store{}
	s.Bind(m, "fake")
	if dir != "" {
		if _, err := s.OpenLedger(ledger.Options{Dir: dir, Fsync: ledger.FsyncAlways}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.CloseLedger() })
	}
	return s, m
}

func TestGateRefusalMeansNoAppendNoApply(t *testing.T) {
	s, m := newStore(t, t.TempDir())
	refused := errors.New("not primary")
	s.SetCommitGate(func() error { return refused })
	if err := m.commit(s, "a"); !errors.Is(err, refused) {
		t.Fatalf("commit behind a closed gate: %v, want %v", err, refused)
	}
	if got := s.Ledger().LastSeq(); got != 0 {
		t.Fatalf("refused commit appended: LastSeq = %d", got)
	}
	if m.len() != 0 {
		t.Fatal("refused commit was applied")
	}
	s.SetCommitGate(nil)
	if err := m.commit(s, "a"); err != nil {
		t.Fatal(err)
	}
	if s.Ledger().LastSeq() != 1 || m.len() != 1 {
		t.Fatalf("after gate removal: LastSeq=%d applied=%d, want 1, 1", s.Ledger().LastSeq(), m.len())
	}
}

func TestAppendFailureFailsClosed(t *testing.T) {
	s, m := newStore(t, t.TempDir())
	if err := m.commit(s, "a"); err != nil {
		t.Fatal(err)
	}
	s.Ledger().InjectSyncFault(func() error { return errors.New("disk on fire") })
	if err := m.commit(s, "b"); err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("commit over a failing fsync: %v", err)
	}
	s.Ledger().InjectSyncFault(nil)
	if err := m.commit(s, "c"); err == nil {
		t.Fatal("commit after a failed fsync was admitted; the ledger must stay failed closed")
	}
	if m.len() != 1 {
		t.Fatalf("applied %d records, want only the one committed before the fault", m.len())
	}
}

func TestApplyReplicatedDivergence(t *testing.T) {
	s, m := newStore(t, t.TempDir())
	if err := s.ApplyReplicated(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	err := s.ApplyReplicated(7, []byte("b")) // local seq will be 2
	if err == nil || !strings.Contains(err.Error(), "replication divergence") {
		t.Fatalf("mismatched seq: %v, want a divergence error", err)
	}
	if m.len() != 1 {
		t.Fatalf("diverged record was applied (%d records)", m.len())
	}
	// The gate is for local mutations only; shipped records bypass it.
	s2, m2 := newStore(t, t.TempDir())
	s2.SetCommitGate(func() error { return errors.New("standby") })
	if err := s2.ApplyReplicated(1, []byte("a")); err != nil || m2.len() != 1 {
		t.Fatalf("replicated apply behind the gate: err=%v applied=%d", err, m2.len())
	}
	// An undecodable record is refused before it reaches the WAL.
	if err := s2.ApplyReplicated(2, nil); err == nil || s2.Ledger().LastSeq() != 1 {
		t.Fatalf("undecodable record: err=%v LastSeq=%d", err, s2.Ledger().LastSeq())
	}
	inMem, _ := newStore(t, "")
	if err := inMem.ApplyReplicated(1, []byte("a")); err == nil {
		t.Fatal("ApplyReplicated without a ledger succeeded")
	}
}

// openFDs counts this process's open descriptors; the refusal tests use
// it to prove the ledger OpenLedger opened was closed again.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd:", err)
	}
	return len(ents)
}

func TestOpenLedgerRefusals(t *testing.T) {
	dir := t.TempDir()
	s, m := newStore(t, dir)
	if err := m.commit(s, "a"); err != nil {
		t.Fatal(err)
	}
	before := openFDs(t)
	if _, err := s.OpenLedger(ledger.Options{Dir: t.TempDir()}); err == nil {
		t.Fatal("second OpenLedger succeeded")
	}
	if err := m.commit(s, "b"); err != nil {
		t.Fatalf("first ledger unusable after a refused second open: %v", err)
	}

	nonEmpty := &fakeMachine{applied: []string{"x"}}
	s2 := &Store{}
	s2.Bind(nonEmpty, "fake")
	if _, err := s2.OpenLedger(ledger.Options{Dir: t.TempDir()}); err == nil {
		t.Fatal("OpenLedger on a non-empty machine succeeded")
	}
	if s2.Ledger() != nil {
		t.Fatal("refused OpenLedger left a ledger attached")
	}
	if after := openFDs(t); after != before {
		t.Fatalf("refused OpenLedger calls leaked descriptors: %d open before, %d after", before, after)
	}

	// A replay failure also refuses, closes, and attaches nothing.
	bad := t.TempDir()
	lg, _, err := ledger.Open(ledger.Options{Dir: bad})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lg.Append(nil); err != nil { // fakeMachine cannot decode an empty record
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	s3, _ := newStore(t, "")
	if _, err := s3.OpenLedger(ledger.Options{Dir: bad}); err == nil || s3.Ledger() != nil {
		t.Fatalf("OpenLedger over an unreplayable WAL: err=%v ledger=%v", err, s3.Ledger())
	}
}

func TestRecoveryReplaysSnapshotThenWAL(t *testing.T) {
	dir := t.TempDir()
	s, m := newStore(t, dir)
	for _, r := range []string{"a", "b"} {
		if err := m.commit(s, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if err := m.commit(s, "c"); err != nil {
		t.Fatal(err)
	}
	want, wantSeq, err := s.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CloseLedger(); err != nil {
		t.Fatal(err)
	}

	s2, _ := newStore(t, dir)
	got, gotSeq, err := s2.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) || gotSeq != wantSeq {
		t.Fatalf("recovered %s@%d, want %s@%d", got, gotSeq, want, wantSeq)
	}
}

func TestInstallSnapshotAllOrNothing(t *testing.T) {
	s, m := newStore(t, t.TempDir())
	if err := m.commit(s, "a"); err != nil {
		t.Fatal(err)
	}
	before, beforeSeq, _ := s.SnapshotState()
	if err := s.InstallSnapshot([]byte("garbage"), 40); err == nil {
		t.Fatal("undecodable snapshot installed")
	}
	after, afterSeq, _ := s.SnapshotState()
	if string(after) != string(before) || afterSeq != beforeSeq {
		t.Fatalf("failed install changed state: %s@%d -> %s@%d", before, beforeSeq, after, afterSeq)
	}
	if err := s.InstallSnapshot([]byte(`"x,y"`), 40); err != nil {
		t.Fatal(err)
	}
	state, seq, _ := s.SnapshotState()
	if string(state) != `"x,y"` || seq != 40 || s.Ledger().SnapshotSeq() != 40 {
		t.Fatalf("installed %s@%d (ledger snapshot seq %d), want \"x,y\"@40", state, seq, s.Ledger().SnapshotSeq())
	}
}

// TestSnapshotSeqMatchesStateUnderCommitters is the capture invariant:
// with committers racing, every snapshot's sequence number is exactly
// the number of records in the captured state.
func TestSnapshotSeqMatchesStateUnderCommitters(t *testing.T) {
	s, m := newStore(t, t.TempDir())
	const committers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := m.commit(s, "r"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		state, seq, err := s.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		records := 0
		if string(state) != `""` {
			records = strings.Count(string(state), ",") + 1
		}
		if uint64(records) != seq {
			t.Fatalf("snapshot holds %d records but claims seq %d", records, seq)
		}
	}
	if got := s.Ledger().LastSeq(); got != committers*each {
		t.Fatalf("LastSeq = %d, want %d", got, committers*each)
	}
}
