// Package durable is the one implementation of the contract every
// ledger-backed server (accounting, group, authz) carries: a change
// that is not durable must not become visible, and a node that is not
// primary must not admit one.
//
// The state lives in a Machine, which knows how to decode and apply one
// WAL record, capture a deterministic snapshot, and restore from one —
// and keeps its own locking (the bank its account stripes, the group
// and rule databases a single mutex). Everything else is the Store's:
// the commit gate, append-before-visible, recovery, replicated apply
// with the divergence check, all-or-nothing snapshot install, the
// snapshotter, and the ledger's share of /healthz. Servers embed a
// Store, so they expose this method set (and satisfy
// repl.StateMachine) without writing any of it.
//
// Lock order: the machine's locks, then the Store's mutex (a leaf
// guarding only the ledger and gate references), then the ledger's own.
// The Store calls into the machine holding nothing.
package durable

import (
	"fmt"
	"sync"
	"time"

	"proxykit/internal/ledger"
)

// Machine is the state half of a durable server. The callbacks its
// methods take are the Store's ledger calls, handed over so they run
// inside the machine's critical section; they never re-enter the
// machine.
type Machine interface {
	// Apply decodes one WAL record, takes the write locks a live commit
	// of that record holds, calls logged, and — only if logged succeeds
	// — mutates state, all before unlocking. A capture therefore never
	// sees a record logged but not applied.
	Apply(record []byte, logged func() error) error
	// Snapshot captures the whole state as a deterministic document:
	// equal states yield equal bytes. It excludes commits (a live
	// commit holds its write locks across WriteAhead and its apply)
	// and calls captured before letting them back in.
	Snapshot(captured func()) ([]byte, error)
	// Restore replaces the whole state with a snapshot document, all or
	// nothing: it decodes the document completely first, and a decode
	// failure leaves the machine untouched. The swap excludes readers
	// as well as commits, and swapped runs before either is let back in.
	Restore(state []byte, swapped func() error) error
	// Empty reports whether the machine holds no state yet.
	Empty() bool
}

// Store binds a Machine to a ledger. The zero value is an in-memory
// store (no ledger, no gate) once Bind has named its machine.
type Store struct {
	m    Machine
	name string // error prefix: the embedding package's name

	mu     sync.Mutex
	ledger *ledger.Ledger
	gate   func() error
}

// Bind names the machine this store drives and the prefix its errors
// carry. Call it once, from the embedding server's constructor.
func (s *Store) Bind(m Machine, name string) {
	s.m = m
	s.name = name
}

// SetCommitGate installs a check run at the top of every live commit,
// before the WAL append; an error from it refuses the mutation. nil
// removes the gate. Replicated applies bypass it — they carry the
// primary's already-committed records.
func (s *Store) SetCommitGate(gate func() error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gate = gate
}

// Ledger returns the attached ledger, nil when the store is in-memory
// only.
func (s *Store) Ledger() *ledger.Ledger {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ledger
}

// WriteAhead is the first half of every live commit: it consults the
// commit gate and, with a ledger attached, appends the record encode
// returns (an in-memory store never asks for it). The caller holds the
// machine's write locks for everything the record touches, and mutates
// state only when WriteAhead returns nil — a refused or failed append
// means the mutation never happened, and the ledger fails every later
// append closed. encode is only called, never retained, so a closure
// passed here stays on the caller's stack.
func (s *Store) WriteAhead(encode func() ([]byte, error)) error {
	s.mu.Lock()
	gate, lg := s.gate, s.ledger
	s.mu.Unlock()
	if gate != nil {
		if err := gate(); err != nil {
			return err
		}
	}
	if lg == nil {
		return nil
	}
	record, err := encode()
	if err != nil {
		return err
	}
	if _, err := lg.Append(record); err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	return nil
}

// OpenLedger attaches a durable ledger to a freshly constructed server,
// restoring any recovered snapshot and replaying the WAL tail through
// the machine's Apply — the same path live commits and replication use.
// It refuses a store that already has a ledger or a machine that
// already holds state; provisioning after recovery must tolerate what
// came back from disk.
func (s *Store) OpenLedger(o ledger.Options) (*ledger.Recovery, error) {
	lg, rec, err := ledger.Open(o)
	if err != nil {
		return nil, err
	}
	if err := s.recover(rec); err != nil {
		lg.Close()
		return nil, err
	}
	s.mu.Lock()
	s.ledger = lg
	s.mu.Unlock()
	return rec, nil
}

// noLedgerStep is the callback recovery hands the machine: what it
// restores and replays came out of the ledger already.
func noLedgerStep() error { return nil }

func (s *Store) recover(rec *ledger.Recovery) error {
	if s.Ledger() != nil {
		return fmt.Errorf("%s: ledger already open", s.name)
	}
	if !s.m.Empty() {
		return fmt.Errorf("%s: OpenLedger requires a server with no state yet", s.name)
	}
	if rec.Snapshot != nil {
		if err := s.m.Restore(rec.Snapshot, noLedgerStep); err != nil {
			return err
		}
	}
	for _, e := range rec.Entries {
		if err := s.m.Apply(e.Data, noLedgerStep); err != nil {
			return fmt.Errorf("%s: replay WAL record %d: %w", s.name, e.Seq, err)
		}
	}
	return nil
}

// attached returns the ledger or the error every ledger-requiring
// method reports without one.
func (s *Store) attached() (*ledger.Ledger, error) {
	if lg := s.Ledger(); lg != nil {
		return lg, nil
	}
	return nil, fmt.Errorf("%s: no ledger attached", s.name)
}

// ApplyReplicated appends one shipped WAL record to the local ledger
// and applies it — the standby's replay path. The locally assigned
// sequence number must equal the primary's; a mismatch means the two
// logs have diverged and the standby must not continue. Callers (the
// replication puller) are single-threaded.
func (s *Store) ApplyReplicated(seq uint64, record []byte) error {
	lg, err := s.attached()
	if err != nil {
		return err
	}
	return s.m.Apply(record, func() error {
		got, err := lg.Append(record)
		if err != nil {
			return fmt.Errorf("%s: replicate: %w", s.name, err)
		}
		if got != seq {
			return fmt.Errorf("%s: replication divergence: local seq %d, shipped seq %d", s.name, got, seq)
		}
		return nil
	})
}

// InstallSnapshot replaces the machine's entire state with a snapshot
// shipped from the primary and resets the local ledger to cover it —
// replication catch-up when the primary has truncated the records a
// lagging standby still needs. An undecodable snapshot changes nothing:
// the standby keeps its old state over its old WAL.
func (s *Store) InstallSnapshot(state []byte, seq uint64) error {
	lg, err := s.attached()
	if err != nil {
		return err
	}
	return s.m.Restore(state, func() error { return lg.Reset(state, seq) })
}

// SnapshotState captures the machine's full state plus the WAL sequence
// number the capture covers. The sequence is read inside the capture's
// critical section: no commit is between its append and its apply
// there, so the state and the number agree.
func (s *Store) SnapshotState() (state []byte, seq uint64, err error) {
	state, err = s.m.Snapshot(func() {
		if lg := s.Ledger(); lg != nil {
			seq = lg.LastSeq()
		}
	})
	if err != nil {
		return nil, 0, fmt.Errorf("%s: snapshot: %w", s.name, err)
	}
	return state, seq, nil
}

// SnapshotNow captures the current state and commits it as a snapshot,
// truncating the WAL when nothing raced past the capture.
func (s *Store) SnapshotNow() error {
	lg, err := s.attached()
	if err != nil {
		return err
	}
	state, seq, err := s.SnapshotState()
	if err != nil {
		return err
	}
	return lg.WriteSnapshot(state, seq)
}

// StartSnapshotter runs SnapshotNow every interval while new WAL
// records exist. The returned stop function halts it and waits.
func (s *Store) StartSnapshotter(interval time.Duration) (stop func()) {
	lg := s.Ledger()
	if lg == nil {
		return func() {}
	}
	return lg.StartSnapshotter(interval, s.SnapshotNow)
}

// CloseLedger flushes and closes the attached ledger; the server keeps
// serving from memory afterwards.
func (s *Store) CloseLedger() error {
	s.mu.Lock()
	lg := s.ledger
	s.ledger = nil
	s.mu.Unlock()
	if lg == nil {
		return nil
	}
	return lg.Close()
}

// Health returns the ledger's /healthz fragment, nil for an in-memory
// store.
func (s *Store) Health() map[string]any {
	if lg := s.Ledger(); lg != nil {
		return lg.Health()
	}
	return nil
}
