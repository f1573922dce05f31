package ledger

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestReadEntriesTailsLiveWAL drives the shipping cursor over a live
// ledger: every appended record is readable, in order, with correct
// horizons.
func TestReadEntriesTailsLiveWAL(t *testing.T) {
	for _, mode := range []FsyncMode{FsyncAlways, FsyncInterval, FsyncOff} {
		t.Run(mode.String(), func(t *testing.T) {
			l, _ := openT(t, t.TempDir(), mode)
			defer l.Close()
			for i := 0; i < 20; i++ {
				appendT(t, l, fmt.Sprintf("r%d", i))
			}
			res, err := l.ReadEntries(1, 0)
			if err != nil {
				t.Fatalf("ReadEntries: %v", err)
			}
			if len(res.Entries) != 20 || res.LastSeq != 20 || res.SnapSeq != 0 {
				t.Fatalf("got %d entries, last %d, snap %d", len(res.Entries), res.LastSeq, res.SnapSeq)
			}
			for i, e := range res.Entries {
				if e.Seq != uint64(i+1) || string(e.Data) != fmt.Sprintf("r%d", i) {
					t.Fatalf("entry %d: seq %d data %q", i, e.Seq, e.Data)
				}
			}
			// Bounded batch, offset start.
			res, err = l.ReadEntries(11, 5)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Entries) != 5 || res.Entries[0].Seq != 11 || res.Entries[4].Seq != 15 {
				t.Fatalf("batch read wrong: %+v", res.Entries)
			}
			// Reading at the tip is an empty read, not an error.
			res, err = l.ReadEntries(21, 0)
			if err != nil || len(res.Entries) != 0 {
				t.Fatalf("tip read: %d entries, err %v", len(res.Entries), err)
			}
		})
	}
}

// readT calls ReadEntries, failing the test on error.
func readT(t *testing.T, l *Ledger, from uint64, max int) CursorResult {
	t.Helper()
	res, err := l.ReadEntries(from, max)
	if err != nil {
		t.Fatalf("ReadEntries(%d, %d): %v", from, max, err)
	}
	return res
}

// wantSeqs fails the test unless res holds exactly the records
// first..last, in order, with the payloads appendN wrote.
func wantSeqs(t *testing.T, res CursorResult, first, last uint64) {
	t.Helper()
	if uint64(len(res.Entries)) != last-first+1 {
		t.Fatalf("got %d entries, want seqs %d..%d: %+v", len(res.Entries), first, last, res.Entries)
	}
	for i, e := range res.Entries {
		seq := first + uint64(i)
		if e.Seq != seq || string(e.Data) != fmt.Sprintf("rec-%d", seq) {
			t.Fatalf("entry %d: seq %d data %q, want seq %d", i, e.Seq, e.Data, seq)
		}
	}
}

// appendN appends n records whose payloads name their sequence number.
func appendN(t *testing.T, l *Ledger, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		appendT(t, l, fmt.Sprintf("rec-%d", l.LastSeq()+1))
	}
}

// point returns the cursor's resume point.
func point(l *Ledger) (uint64, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cursSeq, l.cursOff
}

// TestReadEntriesResumesAtTail tails a live WAL the way a caught-up
// standby does: each pull after a resume returns exactly the records
// appended since the last one, with the right horizons, in every fsync
// mode; and a tip read leaves the resume point at the end of the file,
// so the next caught-up pull reads no old byte.
func TestReadEntriesResumesAtTail(t *testing.T) {
	for _, mode := range []FsyncMode{FsyncAlways, FsyncInterval, FsyncOff} {
		t.Run(mode.String(), func(t *testing.T) {
			l, _ := openT(t, t.TempDir(), mode)
			defer l.Close()
			appendN(t, l, 10)
			wantSeqs(t, readT(t, l, 1, 0), 1, 10)
			next := uint64(11)
			for round := 1; round <= 6; round++ {
				appendN(t, l, round)
				if mode == FsyncOff && round%2 == 0 {
					if err := l.Sync(); err != nil { // move buffered frames into the file
						t.Fatal(err)
					}
				}
				res := readT(t, l, next, 0)
				wantSeqs(t, res, next, next+uint64(round)-1)
				next += uint64(round)
				if res.LastSeq != next-1 {
					t.Fatalf("round %d: LastSeq %d, want %d", round, res.LastSeq, next-1)
				}
				// A caught-up pull is empty but still reports the tip.
				if res := readT(t, l, next, 0); len(res.Entries) != 0 || res.LastSeq != next-1 {
					t.Fatalf("round %d: tip read %+v last %d", round, res.Entries, res.LastSeq)
				}
				seq, off := point(l)
				l.mu.Lock()
				size, buffered := l.size, len(l.buf)
				l.mu.Unlock()
				if buffered == 0 && (seq != next || off != size) {
					t.Fatalf("round %d: point (%d, %d) after a tip read, want (%d, %d)", round, seq, off, next, size)
				}
				if off > size {
					t.Fatalf("round %d: point offset %d past the file's %d bytes", round, off, size)
				}
			}
		})
	}
}

// TestReadEntriesBehindPointFallsBack alternates two readers at
// different positions: the one behind the point falls back to a scan
// from the start of the file, and both still see dense, correct batches.
func TestReadEntriesBehindPointFallsBack(t *testing.T) {
	l, _ := openT(t, t.TempDir(), FsyncAlways)
	defer l.Close()
	appendN(t, l, 40)
	fast, slow := uint64(1), uint64(1)
	for slow <= l.LastSeq() {
		appendN(t, l, 1)
		tip := l.LastSeq()
		last := min(fast+6, tip)
		wantSeqs(t, readT(t, l, fast, 7), fast, last)
		fast = last + 1
		// The fast reader left the point ahead of slow: this read falls back.
		if seq, _ := point(l); slow >= seq {
			t.Fatalf("slow reader at %d is not behind the point %d", slow, seq)
		}
		last = min(slow+2, tip)
		wantSeqs(t, readT(t, l, slow, 3), slow, last)
		slow = last + 1
	}
	if fast != slow {
		t.Fatalf("readers ended at %d and %d, want both at the tip", fast, slow)
	}
}

// TestReadEntriesBoundedBatchResumes pins where a max-bounded read
// leaves the point: at the frame after its last returned record, not at
// the end of the scan, so the next batch starts there.
func TestReadEntriesBoundedBatchResumes(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, FsyncAlways)
	defer l.Close()
	appendN(t, l, 20)
	offsets, err := ScanOffsets(WALPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	wantSeqs(t, readT(t, l, 1, 5), 1, 5)
	if seq, off := point(l); seq != 6 || off != offsets[4].End {
		t.Fatalf("point (%d, %d) after batch 1..5, want (6, %d)", seq, off, offsets[4].End)
	}
	wantSeqs(t, readT(t, l, 6, 5), 6, 10)
	if seq, off := point(l); seq != 11 || off != offsets[9].End {
		t.Fatalf("point (%d, %d) after batch 6..10, want (11, %d)", seq, off, offsets[9].End)
	}
	wantSeqs(t, readT(t, l, 11, 0), 11, 20)
}

// TestReadEntriesPointClearedByTruncation checks that neither a
// snapshot truncation nor a Reset leaves a resume point into the old
// file: an old from gets ErrTruncated, and SnapSeq+1 reads the records
// written after the truncation, not bytes at a stale offset (the
// post-truncation payloads are longer, so a stale offset lands
// mid-frame).
func TestReadEntriesPointClearedByTruncation(t *testing.T) {
	for _, how := range []string{"snapshot", "reset"} {
		t.Run(how, func(t *testing.T) {
			l, _ := openT(t, t.TempDir(), FsyncAlways)
			defer l.Close()
			appendN(t, l, 10)
			wantSeqs(t, readT(t, l, 1, 0), 1, 10)
			if seq, _ := point(l); seq != 11 {
				t.Fatalf("point seq %d before truncation, want 11", seq)
			}
			horizon := uint64(10)
			if how == "snapshot" {
				if err := l.WriteSnapshot([]byte(`{}`), 10); err != nil {
					t.Fatal(err)
				}
			} else {
				horizon = 40
				if err := l.Reset([]byte(`{}`), horizon); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 10; i++ {
				appendT(t, l, fmt.Sprintf("post-truncation-%03d-padding", i))
			}
			// Read past the horizon first: a stale point (11 at the old
			// file's end) would serve this read, where a fallback scan
			// of the old-from read below would have replaced it.
			res := readT(t, l, horizon+1, 0)
			if len(res.Entries) != 10 || res.LastSeq != horizon+10 {
				t.Fatalf("post-truncation read: %d entries, last %d", len(res.Entries), res.LastSeq)
			}
			for i, e := range res.Entries {
				if e.Seq != horizon+1+uint64(i) || string(e.Data) != fmt.Sprintf("post-truncation-%03d-padding", i) {
					t.Fatalf("entry %d: seq %d data %q", i, e.Seq, e.Data)
				}
			}
			res, err := l.ReadEntries(5, 0)
			if !errors.Is(err, ErrTruncated) || res.SnapSeq != horizon {
				t.Fatalf("old from: err %v snap %d, want ErrTruncated at %d", err, res.SnapSeq, horizon)
			}
		})
	}
}

// TestReadEntriesCorruptPastPoint damages a frame the resumed read will
// scan: the cursor still reports ErrCorrupt rather than shipping it.
func TestReadEntriesCorruptPastPoint(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, FsyncAlways)
	defer l.Close()
	appendN(t, l, 3)
	wantSeqs(t, readT(t, l, 1, 0), 1, 3)
	appendN(t, l, 3)
	offsets, err := ScanOffsets(WALPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(WALPath(dir), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of record 5: mid-file, so corruption, not a torn tail.
	if _, err := f.WriteAt([]byte{0xff}, offsets[3].End+frameHeaderLen+8); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if seq, _ := point(l); seq != 4 {
		t.Fatalf("point seq %d, want 4 (the read must resume)", seq)
	}
	if _, err := l.ReadEntries(4, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("resumed read over a corrupt frame: err %v, want ErrCorrupt", err)
	}
}

// BenchmarkReadEntriesTail is a caught-up standby's pull: append one
// record, read from it. With the resume point the cost is flat in the
// WAL's length; a scan from offset 0 would grow with it.
func BenchmarkReadEntriesTail(b *testing.B) {
	payload := make([]byte, 64)
	for _, prefill := range []int{1 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("wal=%d", prefill), func(b *testing.B) {
			// Interval mode with a long period: write(2) per append, no
			// fsync in the timed loop.
			l, _, err := Open(Options{Dir: b.TempDir(), Fsync: FsyncInterval, FsyncInterval: time.Hour})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			for i := 0; i < prefill; i++ {
				if _, err := l.Append(payload); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := l.ReadEntries(l.LastSeq(), 0); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seq, err := l.Append(payload)
				if err != nil {
					b.Fatal(err)
				}
				res, err := l.ReadEntries(seq, 0)
				if err != nil || len(res.Entries) != 1 {
					b.Fatalf("tail read: %d entries, err %v", len(res.Entries), err)
				}
			}
			b.StopTimer() // Close fsyncs the whole WAL; keep it out of ns/op
		})
	}
}

// TestReadEntriesTruncatedReportsSnapshotNeeded pins the catch-up
// contract: once a snapshot truncates the WAL, a cursor positioned
// below the horizon gets ErrTruncated plus the horizon to resume from.
func TestReadEntriesTruncatedReportsSnapshotNeeded(t *testing.T) {
	l, _ := openT(t, t.TempDir(), FsyncAlways)
	defer l.Close()
	for i := 0; i < 10; i++ {
		appendT(t, l, fmt.Sprintf("r%d", i))
	}
	if err := l.WriteSnapshot([]byte(`{"covers":10}`), 10); err != nil {
		t.Fatal(err)
	}
	// WAL is gone; a lagging cursor must be told to fetch the snapshot.
	res, err := l.ReadEntries(5, 0)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadEntries(5) after truncation: err %v, want ErrTruncated", err)
	}
	if res.SnapSeq != 10 {
		t.Fatalf("SnapSeq %d, want 10", res.SnapSeq)
	}
	// Resuming from the horizon works and sees post-snapshot appends.
	appendT(t, l, "after")
	res, err = l.ReadEntries(res.SnapSeq+1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 1 || res.Entries[0].Seq != 11 || string(res.Entries[0].Data) != "after" {
		t.Fatalf("post-snapshot read: %+v", res.Entries)
	}
}

// TestReadEntriesExcludesUnackedCohort ships only records whose Append
// has returned: frames parked in a forming group-commit cohort are
// invisible to the cursor.
func TestReadEntriesExcludesUnackedCohort(t *testing.T) {
	l, _ := openT(t, t.TempDir(), FsyncAlways)
	defer l.Close()
	appendT(t, l, "durable")

	// Simulate a forming cohort: frames in l.pending are not yet synced.
	l.mu.Lock()
	l.pending = appendFrame(l.pending, 99, []byte("unacked"))
	l.mu.Unlock()
	res, err := l.ReadEntries(1, 0)
	l.mu.Lock()
	l.pending = nil
	l.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 1 || res.LastSeq != 1 {
		t.Fatalf("cursor saw unacked cohort frames: %+v last %d", res.Entries, res.LastSeq)
	}
}

// TestScanDuringSnapshotNotMisreportedAsCorrupt is the satellite-1
// regression test: by-path readers (VerifyWAL, ScanOffsets) and the
// in-process cursor run flat out while the owner appends and snapshots
// (truncating the WAL under them); no reader may ever misreport a
// healthy ledger as corrupt.
func TestScanDuringSnapshotNotMisreportedAsCorrupt(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, FsyncInterval)
	defer l.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	wg.Add(3)
	go func() { // by-path verifier
		defer wg.Done()
		for !stop.Load() {
			if _, _, err := VerifyWAL(WALPath(dir)); err != nil {
				errs <- fmt.Errorf("VerifyWAL: %w", err)
				return
			}
		}
	}()
	go func() { // by-path offset scanner
		defer wg.Done()
		for !stop.Load() {
			if _, err := ScanOffsets(WALPath(dir)); err != nil {
				errs <- fmt.Errorf("ScanOffsets: %w", err)
				return
			}
		}
	}()
	go func() { // in-process shipping cursor
		defer wg.Done()
		var from uint64 = 1
		for !stop.Load() {
			res, err := l.ReadEntries(from, 64)
			if err != nil {
				if errors.Is(err, ErrTruncated) {
					from = res.SnapSeq + 1 // catch up past the snapshot
					continue
				}
				errs <- fmt.Errorf("ReadEntries: %w", err)
				return
			}
			if n := len(res.Entries); n > 0 {
				// Shipped batches are dense and in order.
				for i, e := range res.Entries {
					if e.Seq != from+uint64(i) {
						errs <- fmt.Errorf("cursor gap: got seq %d at %d (from %d)", e.Seq, i, from)
						return
					}
				}
				from += uint64(n)
			}
		}
	}()

	deadline := time.Now().Add(700 * time.Millisecond)
	payload := []byte("snapshot-scan-race-payload")
	for time.Now().Before(deadline) {
		for i := 0; i < 8; i++ {
			if _, err := l.Append(payload); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
		// Snapshot at the tip so the WAL truncates under the scanners.
		if err := l.WriteSnapshot([]byte(`{}`), l.LastSeq()); err != nil {
			t.Fatalf("WriteSnapshot: %v", err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestResetInstallsSnapshot pins Reset: state installed, WAL emptied,
// sequence fast-forwarded, and a reopen recovers the installed state.
func TestResetInstallsSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, FsyncAlways)
	for i := 0; i < 3; i++ {
		appendT(t, l, "pre-reset")
	}
	if err := l.Reset([]byte(`{"installed":true}`), 40); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if l.LastSeq() != 40 || l.SnapshotSeq() != 40 {
		t.Fatalf("after reset: last %d snap %d, want 40/40", l.LastSeq(), l.SnapshotSeq())
	}
	if seq := appendT(t, l, "post-reset"); seq != 41 {
		t.Fatalf("post-reset append seq %d, want 41", seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := openT(t, dir, FsyncAlways)
	defer l2.Close()
	if rec.SnapshotSeq != 40 || string(rec.Snapshot) != `{"installed":true}` {
		t.Fatalf("recovered snapshot seq %d state %s", rec.SnapshotSeq, rec.Snapshot)
	}
	if rec.Replayed() != 1 || rec.Entries[0].Seq != 41 {
		t.Fatalf("recovered entries %+v", rec.Entries)
	}
}

// TestSnapshotterBacksOffOnFailure is the satellite-2 regression test:
// a persistently failing snapshot func is retried with exponential
// tick backoff (not at full tick rate), the failure is visible in
// Health, and a success resets both the backoff and the health doc.
func TestSnapshotterBacksOffOnFailure(t *testing.T) {
	l, _ := openT(t, t.TempDir(), FsyncAlways)
	defer l.Close()
	appendT(t, l, "make NeedsSnapshot true")

	var calls atomic.Int64
	fail := atomic.Bool{}
	fail.Store(true)
	boom := errors.New("disk full")
	stop := l.StartSnapshotter(time.Millisecond, func() error {
		calls.Add(1)
		if fail.Load() {
			return boom
		}
		return l.WriteSnapshot([]byte(`{}`), l.LastSeq())
	})
	defer stop()

	// ~120 ticks elapse; full-rate retry would attempt ~120 times, while
	// 2/4/8/... backoff stays in single digits.
	time.Sleep(120 * time.Millisecond)
	n := calls.Load()
	if n == 0 {
		t.Fatal("snapshotter never attempted a snapshot")
	}
	if n > 12 {
		t.Fatalf("failing snapshotter attempted %d times in ~120 ticks; backoff not working", n)
	}
	if err, at := l.LastSnapshotError(); !errors.Is(err, boom) || at.IsZero() {
		t.Fatalf("LastSnapshotError = (%v, %v), want the injected failure", err, at)
	}
	if h := l.Health(); h["ledgerLastSnapshotError"] != boom.Error() {
		t.Fatalf("healthz fragment missing snapshot error: %v", h)
	}

	// Recovery: the next successful attempt clears the error and resets
	// the backoff.
	fail.Store(false)
	waitUntil(t, 5*time.Second, func() bool {
		err, _ := l.LastSnapshotError()
		return err == nil && !l.NeedsSnapshot()
	})
	if h := l.Health(); h["ledgerLastSnapshotError"] != nil {
		t.Fatalf("healthz still reports a snapshot error after success: %v", h)
	}
}

// waitUntil polls cond until it holds or the deadline expires.
func waitUntil(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached before deadline")
}

// TestSnapshotBackoffTicks pins the backoff schedule itself.
func TestSnapshotBackoffTicks(t *testing.T) {
	want := map[int]int{0: 0, 1: 2, 2: 4, 3: 8, 4: 16, 5: 32, 6: 64, 7: 64, 100: 64}
	for failures, ticks := range want {
		if got := snapshotBackoffTicks(failures); got != ticks {
			t.Errorf("snapshotBackoffTicks(%d) = %d, want %d", failures, got, ticks)
		}
	}
}
