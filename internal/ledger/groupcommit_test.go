package ledger

// Tests for group commit (commit cohorts under FsyncAlways), the
// fail-closed interval-fsync regression, and the in-order append-hook
// contract.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGroupCommitConcurrentAppends drives many concurrent committers
// through the cohort path and checks that every append is acknowledged
// with a unique sequence number and that a clean reopen replays all of
// them in order.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, FsyncAlways)

	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	seqs := make([][]uint64, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				seq, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					errs[w] = err
					return
				}
				seqs[w] = append(seqs[w], seq)
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	seen := make(map[uint64]bool)
	for w := range seqs {
		for _, s := range seqs[w] {
			if seen[s] {
				t.Fatalf("sequence %d acknowledged twice", s)
			}
			seen[s] = true
		}
	}
	if len(seen) != workers*perWorker {
		t.Fatalf("%d unique seqs, want %d", len(seen), workers*perWorker)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir, FsyncAlways)
	defer l2.Close()
	if rec.Replayed() != workers*perWorker {
		t.Fatalf("replayed %d records, want %d", rec.Replayed(), workers*perWorker)
	}
	for i, e := range rec.Entries {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d — recovered prefix not dense", i, e.Seq)
		}
	}
}

// TestGroupCommitBatches proves cohorts actually batch: with appenders
// stalled behind one slow fsync, the ledger must flush fewer batches
// than records.
func TestGroupCommitBatches(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, FsyncAlways)
	defer l.Close()

	// Slow every fsync down so concurrent appenders pile into cohorts.
	var fsyncs atomic.Int64
	l.syncFault = func() error {
		fsyncs.Add(1)
		time.Sleep(5 * time.Millisecond)
		return nil
	}

	const workers, perWorker = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := l.Append([]byte("x")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := fsyncs.Load(); n >= workers*perWorker {
		t.Fatalf("%d fsyncs for %d appends — no batching happened", n, workers*perWorker)
	} else {
		t.Logf("%d appends in %d fsyncs (amortization %.1fx)", workers*perWorker, n,
			float64(workers*perWorker)/float64(n))
	}
}

// TestGroupCommitCohortFailureFailsClosed injects an fsync error under
// concurrent cohort traffic: every member of the failed cohort must get
// the error, and the ledger must refuse all later appends.
func TestGroupCommitCohortFailureFailsClosed(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, FsyncAlways)
	defer l.Close()

	boom := errors.New("injected fsync failure")
	var arm atomic.Bool
	l.syncFault = func() error {
		if arm.Load() {
			return boom
		}
		return nil
	}

	appendT(t, l, "before")
	arm.Store(true)

	const workers = 6
	var wg sync.WaitGroup
	failed := make([]error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, failed[w] = l.Append([]byte("doomed"))
		}()
	}
	wg.Wait()
	for w, err := range failed {
		if err == nil {
			t.Fatalf("worker %d: append succeeded after injected fsync failure", w)
		}
		if !errors.Is(err, boom) && !strings.Contains(err.Error(), "earlier write failure") {
			t.Fatalf("worker %d: unexpected error %v", w, err)
		}
	}
	if _, err := l.Append([]byte("after")); err == nil {
		t.Fatal("ledger accepted an append after a cohort failure — must fail closed")
	} else if !errors.Is(err, boom) {
		t.Fatalf("fail-closed error does not wrap the cause: %v", err)
	}
}

// TestIntervalFsyncFailureFailsClosed is the regression test for the
// syncLoop bug: an interval-mode timer fsync failure was only logged,
// leaving the ledger accepting appends past unsynced (possibly torn)
// data. The ledger must fail closed instead.
func TestIntervalFsyncFailureFailsClosed(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, Fsync: FsyncInterval, FsyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	boom := errors.New("injected interval fsync failure")
	l.mu.Lock()
	l.syncFault = func() error { return boom }
	l.mu.Unlock()

	appendT(t, l, "dirty") // marks the ledger dirty; the next tick's fsync fails

	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := l.Append([]byte("should-be-refused"))
		if err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("refusal does not wrap the fsync error: %v", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("appends still succeeding long after an interval fsync failure — ledger did not fail closed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// And it stays closed.
	if _, err := l.Append([]byte("still-refused")); err == nil {
		t.Fatal("append succeeded after the ledger failed closed")
	}
}

// TestAppendHookInOrder pins the hook-delivery contract: hooks fire in
// sequence order even under concurrent cohort commits.
func TestAppendHookInOrder(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, FsyncAlways)
	defer l.Close()

	var mu sync.Mutex
	var got []uint64
	l.SetAppendHook(func(seq uint64) {
		mu.Lock()
		got = append(got, seq)
		mu.Unlock()
	})

	const workers, perWorker = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := l.Append([]byte("h")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(got) != workers*perWorker {
		t.Fatalf("hook fired %d times, want %d", len(got), workers*perWorker)
	}
	for i, s := range got {
		if s != uint64(i+1) {
			t.Fatalf("hook %d delivered seq %d — out of order", i, s)
		}
	}
}

// TestSnapshotSkipsTruncateWithPendingCohort covers the writeSnapshot
// guard: frames accumulated for a cohort that has not flushed yet must
// keep the WAL from being truncated underneath them.
func TestSnapshotSkipsTruncateWithPendingCohort(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, FsyncAlways)
	defer l.Close()

	appendT(t, l, "durable")
	seq := l.LastSeq()

	// Simulate a forming cohort: pending frames, no flush yet.
	l.mu.Lock()
	l.pending = appendFrame(nil, l.seq+1, []byte("in-flight"))
	l.mu.Unlock()

	if err := l.WriteSnapshot([]byte(`{"s":1}`), seq); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	size := l.size
	l.mu.Unlock()
	if size == 0 {
		t.Fatal("snapshot truncated the WAL while cohort frames were pending")
	}
}
