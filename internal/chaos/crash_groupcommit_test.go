package chaos

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"proxykit/internal/ledger"
)

// Group-commit durability under SIGKILL: concurrent appenders on an
// fsync=always ledger join commit cohorts — one leader fsyncs a whole
// batch. Group commit must never weaken the contract that a returned
// Append is durable, so the harness kills a child process while
// cohorts are in flight and proves:
//
//   - every sequence number the child acknowledged (Append returned,
//     ack line written) survives recovery, and
//   - the recovered WAL is a dense prefix — no holes where a cohort
//     member was lost while its batch-mates survived.
//
// The child appends from gcCrashWorkers goroutines and records each
// acknowledged seq in a per-worker O_APPEND ack file; the parent kills
// it at ack-count thresholds chosen to land at different cohort
// boundaries, then replays the WAL and reconciles it with the acks.

const gcCrashWorkers = 8

// TestCrashRecoveryGroupCommitChild only does real work when
// re-executed by TestCrashRecoveryGroupCommit; it appends until killed.
func TestCrashRecoveryGroupCommitChild(t *testing.T) {
	dir := os.Getenv("CHAOS_GC_CRASH_DIR")
	if dir == "" {
		t.Skip("child-only test")
	}
	l, _, err := ledger.Open(ledger.Options{
		Dir:   filepath.Join(dir, "ledger"),
		Fsync: ledger.FsyncAlways,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < gcCrashWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acks, err := os.OpenFile(gcAckPath(dir, w), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; ; i++ {
				seq, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					return // ledger failed closed or test torn down
				}
				// The append is durable; acknowledge it. A SIGKILL can
				// tear at most this file's final line.
				if _, err := fmt.Fprintf(acks, "%d\n", seq); err != nil {
					return
				}
			}
		}(w)
	}
	if err := os.WriteFile(filepath.Join(dir, "ready"), nil, 0o600); err != nil {
		t.Fatal(err)
	}
	wg.Wait() // workers never finish; the parent's SIGKILL ends this
}

func gcAckPath(dir string, worker int) string {
	return filepath.Join(dir, fmt.Sprintf("acks-%d", worker))
}

// gcReadAcks returns every acknowledged seq across the worker ack
// files, dropping a torn final line (the only corruption a SIGKILL can
// inflict on an O_APPEND stream of short lines).
func gcReadAcks(t *testing.T, dir string) []uint64 {
	t.Helper()
	var acked []uint64
	for w := 0; w < gcCrashWorkers; w++ {
		raw, err := os.ReadFile(gcAckPath(dir, w))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			t.Fatal(err)
		}
		sc := bufio.NewScanner(strings.NewReader(string(raw)))
		for sc.Scan() {
			seq, err := strconv.ParseUint(sc.Text(), 10, 64)
			if err != nil {
				continue // torn tail
			}
			acked = append(acked, seq)
		}
	}
	return acked
}

func TestCrashRecoveryGroupCommit(t *testing.T) {
	if os.Getenv("CHAOS_GC_CRASH_DIR") != "" {
		return // child run; work happens in the Child test
	}
	if testing.Short() {
		t.Skip("multi-process crash test in -short mode")
	}
	// Three kill points: early (first cohorts), mid-stream, and deep —
	// different batch phases at the moment the power cord is pulled.
	for _, killAfter := range []int{25, 120, 400} {
		t.Run(fmt.Sprintf("killAfter=%d", killAfter), func(t *testing.T) {
			gcCrashRound(t, killAfter)
		})
	}
}

func gcCrashRound(t *testing.T, killAfter int) {
	dir := t.TempDir()
	p, err := StartProc(os.Args[0],
		[]string{"-test.run=^TestCrashRecoveryGroupCommitChild$"},
		[]string{"CHAOS_GC_CRASH_DIR=" + dir})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	if err := awaitFile(filepath.Join(dir, "ready"), 30*time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for len(gcReadAcks(t, dir)) < killAfter {
		if time.Now().After(deadline) {
			t.Fatalf("child acknowledged %d appends in 30s; want >= %d",
				len(gcReadAcks(t, dir)), killAfter)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := p.Kill(); err != nil {
		t.Fatal(err)
	}

	acked := gcReadAcks(t, dir)
	_, rec, err := ledger.Open(ledger.Options{
		Dir:   filepath.Join(dir, "ledger"),
		Fsync: ledger.FsyncAlways,
	})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}

	// The WAL must be a dense prefix 1..n: a cohort is one write, so a
	// surviving batch-mate implies every earlier record survived too.
	for i, e := range rec.Entries {
		if e.Seq != uint64(i+1) {
			t.Fatalf("WAL not dense: entry %d has seq %d", i, e.Seq)
		}
	}
	last := uint64(len(rec.Entries))

	// Nothing acknowledged may be lost. Density reduces presence to a
	// bound check.
	maxAcked := uint64(0)
	for _, seq := range acked {
		if seq > last {
			t.Fatalf("acknowledged seq %d lost: recovered WAL ends at %d (torn=%v)",
				seq, last, rec.TornTail)
		}
		if seq > maxAcked {
			maxAcked = seq
		}
	}

	// Per-worker payloads must also form dense prefixes: worker w only
	// appends record i after record i-1 returned (was durable), so a
	// recovered "w3-17" implies "w3-0".."w3-16" are all present.
	next := make([]int, gcCrashWorkers)
	for _, e := range rec.Entries {
		var w, i int
		if _, err := fmt.Sscanf(string(e.Data), "w%d-%d", &w, &i); err != nil {
			t.Fatalf("seq %d: unparseable payload %q", e.Seq, e.Data)
		}
		if i != next[w] {
			t.Fatalf("worker %d: recovered append %d out of order (want %d) at seq %d",
				w, i, next[w], e.Seq)
		}
		next[w]++
	}
	t.Logf("killAfter=%d: recovered %d records (%d acknowledged, max acked seq %d, torn=%v)",
		killAfter, last, len(acked), maxAcked, rec.TornTail)
}
