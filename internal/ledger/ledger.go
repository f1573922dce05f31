// Package ledger is the durability substrate for the accounting, authz,
// and group databases: a write-ahead log plus snapshot files in a
// directory.
//
// §4 of the paper makes accounting servers the system of record, and
// §7.7 requires a bank to remember paid check numbers "until the
// expiration time on the check" — obligations that do not survive a
// process restart if the state lives only in maps. A server using this
// package appends one WAL record per committed mutation *before* the
// in-memory change becomes visible, periodically captures a full-state
// snapshot, and on startup restores the snapshot and replays the WAL
// tail.
//
// WAL format: a sequence of frames
//
//	[4-byte LE length = 8 + len(payload)]
//	[4-byte LE CRC-32 (IEEE) of seq+payload]
//	[8-byte LE sequence number]
//	[payload]
//
// Sequence numbers increase by exactly one per record across snapshot
// truncations, which makes every crash window idempotent: a snapshot
// records the sequence number it covers, and replay skips WAL records
// at or below it (so a crash between the snapshot rename and the WAL
// truncation replays nothing twice).
//
// Recovery rules: a record that runs past the end of the file, or whose
// checksum fails on the *final* record, is a torn tail — the crash
// interrupted the last append — and is dropped and truncated away. A
// checksum failure or sequence break anywhere earlier is corruption,
// and Open refuses the directory rather than silently losing committed
// state (ErrCorrupt).
//
// Fsync policy:
//
//	always    write(2) + fsync(2) per append — survives power loss.
//	          Concurrent appenders join a commit cohort (group commit):
//	          one leader performs a single write+fsync for the whole
//	          batch while followers block on its completion, so the
//	          fsync cost is amortized across committers without
//	          weakening the per-append durability guarantee.
//	interval  write(2) per append, fsync on a timer — survives SIGKILL,
//	          may lose the last interval on power loss
//	off       buffered in-process, flushed on snapshot/sync/close —
//	          survives a clean shutdown only; fastest
//
// Any write or fsync failure — including an interval-mode timer fsync —
// fails the ledger closed: every subsequent Append is refused, because a
// torn tail buried under a later successful append would read back as
// mid-file corruption instead of a recoverable crash.
package ledger

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// ErrCorrupt reports a WAL whose middle is damaged; recovery refuses to
// proceed past it because records after the damage may depend on the
// lost one.
var ErrCorrupt = errors.New("ledger: corrupt WAL")

// ErrClosed is returned by operations on a closed ledger.
var ErrClosed = errors.New("ledger: closed")

// ErrTruncated is returned by ReadEntries when the requested sequence
// number has been truncated away by a snapshot: the records below the
// snapshot horizon are gone, and a shipper must install the snapshot
// and resume from snapSeq+1.
var ErrTruncated = errors.New("ledger: requested records truncated by snapshot")

// On-disk names inside the ledger directory.
const (
	walName      = "wal.log"
	snapshotName = "snapshot.json"
)

// frameHeaderLen is length + checksum (the seq is covered by length).
const frameHeaderLen = 8

// maxRecordLen bounds a single record (seq + payload). Lengths beyond
// it cannot be produced by Append and are treated as corruption.
const maxRecordLen = 64 << 20

// FsyncMode selects the append durability policy.
type FsyncMode int

// Fsync policies, strongest first.
const (
	FsyncAlways FsyncMode = iota
	FsyncInterval
	FsyncOff
)

// String implements fmt.Stringer.
func (m FsyncMode) String() string {
	switch m {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	default:
		return fmt.Sprintf("fsync(%d)", int(m))
	}
}

// ParseFsyncMode parses the -fsync flag values always|interval|off.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("ledger: unknown fsync mode %q (want always|interval|off)", s)
}

// Options configures Open.
type Options struct {
	// Dir is the ledger directory; created if absent.
	Dir string
	// Fsync is the append durability policy.
	Fsync FsyncMode
	// FsyncInterval is the timer period for FsyncInterval mode;
	// defaults to 100ms.
	FsyncInterval time.Duration
	// Logger receives recovery and snapshot diagnostics; nil discards.
	Logger *slog.Logger
}

// Entry is one replayed WAL record.
type Entry struct {
	Seq  uint64
	Data []byte
}

// Recovery reports what Open restored.
type Recovery struct {
	// SnapshotSeq is the sequence number the loaded snapshot covers; 0
	// when no snapshot existed.
	SnapshotSeq uint64
	// Snapshot is the raw snapshot state, nil when none existed.
	Snapshot []byte
	// Entries are the WAL records after the snapshot, in order.
	Entries []Entry
	// TornTail reports that a partial final record was dropped.
	TornTail bool
}

// Replayed is the number of WAL records handed back for replay.
func (r *Recovery) Replayed() int { return len(r.Entries) }

// Ledger is an open WAL + snapshot directory. Appends are serialized
// internally; callers typically also serialize them under their own
// state lock so the WAL order equals the commit order.
type Ledger struct {
	dir    string
	mode   FsyncMode
	logger *slog.Logger

	// syncMu serializes batch I/O — cohort flushes, Sync, Close, and
	// snapshot truncation — against the group-commit leader, which
	// writes outside l.mu. Lock order: syncMu before mu, never the
	// reverse.
	syncMu sync.Mutex

	// truncMu excludes WAL truncation (snapshot commit, Reset) from
	// in-process readers: ReadEntries holds it shared while reading the
	// file outside l.mu, so a shipper never observes the file shrinking
	// mid-scan. Lock order: syncMu before truncMu before mu.
	truncMu sync.RWMutex

	mu        sync.Mutex
	f         *os.File
	buf       []byte // pending unwritten frames in FsyncOff mode
	pending   []byte // frames awaiting the open cohort's flush (group commit)
	spare     []byte // recycled pending buffer from the last flushed cohort
	cohort    *cohort
	seq       uint64 // last assigned sequence number
	snapSeq   uint64 // sequence number covered by the snapshot file
	size      int64  // bytes of complete frames in the WAL file
	dirty     bool   // unsynced writes (FsyncInterval)
	failed    bool   // a write failed; the tail may be torn, refuse appends
	failedErr error  // the error that failed the ledger closed
	closed    bool
	hook      func(seq uint64)
	hookGate  chan struct{} // closed once the newest append's hook has run
	syncFault func() error  // injected fsync failure; see InjectSyncFault

	snapErr   error     // last background/explicit snapshot failure, nil after success
	snapErrAt time.Time // when snapErr was recorded

	stop   chan struct{}
	exited chan struct{}
}

// cohort is one group-commit batch: the appends accumulated in
// l.pending while a flush was in flight (or about to start). The
// appender that opens a cohort is its leader and performs the single
// write+fsync for every member; followers block on done and share err.
// An error fails the whole cohort — and the ledger — closed.
type cohort struct {
	done chan struct{}
	err  error
	n    int // records in the batch
}

// WALPath returns the WAL file path inside a ledger directory.
func WALPath(dir string) string { return filepath.Join(dir, walName) }

// SnapshotPath returns the snapshot file path inside a ledger directory.
func SnapshotPath(dir string) string { return filepath.Join(dir, snapshotName) }

// snapshotFile is the snapshot.json schema: the covered sequence number
// plus the owner's opaque (but JSON) state document.
type snapshotFile struct {
	Seq   uint64          `json:"seq"`
	State json.RawMessage `json:"state"`
}

// Open opens (or creates) a ledger directory, returning the recovered
// snapshot and WAL tail. The caller must restore the snapshot and apply
// the entries before issuing new appends.
func Open(o Options) (*Ledger, *Recovery, error) {
	if o.Dir == "" {
		return nil, nil, errors.New("ledger: no directory")
	}
	logger := o.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 4}))
	}
	if err := os.MkdirAll(o.Dir, 0o700); err != nil {
		return nil, nil, fmt.Errorf("ledger: %w", err)
	}
	// A leftover .tmp is a snapshot that never committed; discard it.
	_ = os.Remove(SnapshotPath(o.Dir) + ".tmp")

	rec := &Recovery{}
	if raw, err := os.ReadFile(SnapshotPath(o.Dir)); err == nil {
		var sf snapshotFile
		if err := json.Unmarshal(raw, &sf); err != nil {
			return nil, nil, fmt.Errorf("%w: snapshot: %v", ErrCorrupt, err)
		}
		rec.SnapshotSeq = sf.Seq
		rec.Snapshot = sf.State
	} else if !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("ledger: %w", err)
	}

	f, err := os.OpenFile(WALPath(o.Dir), os.O_CREATE|os.O_RDWR, 0o600)
	if err != nil {
		return nil, nil, fmt.Errorf("ledger: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("ledger: %w", err)
	}

	l := &Ledger{
		dir:     o.Dir,
		mode:    o.Fsync,
		logger:  logger,
		f:       f,
		snapSeq: rec.SnapshotSeq,
		seq:     rec.SnapshotSeq,
	}
	if err := l.scan(data, rec); err != nil {
		f.Close()
		return nil, nil, err
	}
	if int64(len(data)) != l.size {
		// Torn tail (or trailing junk after the last good frame):
		// truncate so the next append starts on a frame boundary.
		mTornTails.Inc()
		rec.TornTail = true
		logger.Warn("ledger: dropping torn WAL tail",
			"dir", o.Dir, "validBytes", l.size, "fileBytes", len(data))
		if err := f.Truncate(l.size); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("ledger: truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(l.size, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("ledger: %w", err)
	}
	mReplayRecords.Add(uint64(len(rec.Entries)))
	if rec.SnapshotSeq > 0 || len(rec.Entries) > 0 {
		logger.Info("ledger recovered", "dir", o.Dir,
			"snapshotSeq", rec.SnapshotSeq, "replayed", len(rec.Entries),
			"tornTail", rec.TornTail)
	}

	if o.Fsync == FsyncInterval {
		iv := o.FsyncInterval
		if iv <= 0 {
			iv = 100 * time.Millisecond
		}
		l.stop = make(chan struct{})
		l.exited = make(chan struct{})
		go l.syncLoop(iv)
	}
	return l, rec, nil
}

// scanFrames walks the WAL frames in data, calling fn for each
// complete, checksum-valid record, and returns the byte length of the
// valid prefix. A partial final frame — or a checksum failure on the
// final frame — is a torn tail: the walk stops there without error.
// Damage anywhere earlier returns ErrCorrupt.
func scanFrames(data []byte, fn func(seq uint64, payload []byte)) (int64, error) {
	off := 0
	var prevSeq uint64
	var size int64
	for off < len(data) {
		if len(data)-off < frameHeaderLen {
			break // torn: partial header at EOF
		}
		length := binary.LittleEndian.Uint32(data[off:])
		if length < 8 || length > maxRecordLen {
			// Append-only writes tear by losing a suffix, never by
			// garbling an earlier byte — an impossible length is
			// corruption, not a torn tail.
			return size, fmt.Errorf("%w: impossible record length %d at offset %d", ErrCorrupt, length, off)
		}
		end := off + frameHeaderLen + int(length)
		if end > len(data) {
			break // torn: record runs past EOF
		}
		sum := binary.LittleEndian.Uint32(data[off+4:])
		body := data[off+frameHeaderLen : end]
		if crc32.ChecksumIEEE(body) != sum {
			if end == len(data) {
				// A final record of full length with a bad checksum can
				// happen when power loss persists pages out of order;
				// it is still the tail, so drop it.
				break
			}
			return size, fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorrupt, off)
		}
		seq := binary.LittleEndian.Uint64(body)
		if prevSeq != 0 && seq != prevSeq+1 {
			return size, fmt.Errorf("%w: sequence break %d -> %d at offset %d", ErrCorrupt, prevSeq, seq, off)
		}
		prevSeq = seq
		if fn != nil {
			fn(seq, body[8:])
		}
		off = end
		size = int64(off)
	}
	return size, nil
}

// scan walks the WAL frames in data, filling rec.Entries with records
// past the snapshot and leaving l.size at the end of the last complete
// frame and l.seq at the last sequence number seen.
func (l *Ledger) scan(data []byte, rec *Recovery) error {
	size, err := scanFrames(data, func(seq uint64, payload []byte) {
		if seq > l.seq {
			l.seq = seq
		}
		if seq > l.snapSeq {
			p := make([]byte, len(payload))
			copy(p, payload)
			rec.Entries = append(rec.Entries, Entry{Seq: seq, Data: p})
		}
	})
	l.size = size
	return err
}

// scanRetries is how many times the by-path readers re-read a file
// that scans as corrupt before believing the corruption: a concurrent
// snapshot truncation can rewrite the WAL under os.ReadFile, splicing
// old and new bytes into a frankenread that fails checksums even
// though both the before- and after-files are healthy. Real corruption
// is stable across re-reads (the content no longer changes), so the
// retry loop converges on the truth either way.
const scanRetries = 3

// readConsistent reads path, re-reading when the content scans as
// corrupt but is still changing between reads (a racing truncation).
// verify parses one read's bytes; its error is returned only once the
// content is stable or the retry budget is exhausted.
func readConsistent(path string, verify func(data []byte) error) error {
	var prev []byte
	for attempt := 0; ; attempt++ {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		verr := verify(data)
		if verr == nil || !errors.Is(verr, ErrCorrupt) {
			return verr
		}
		if attempt > 0 && bytes.Equal(data, prev) {
			return verr // stable content: genuinely corrupt
		}
		if attempt >= scanRetries {
			return verr
		}
		prev = data
		time.Sleep(time.Millisecond)
	}
}

// VerifyWAL re-walks a WAL file's frames — lengths, checksums, dense
// sequence numbers — without opening a ledger. It returns the number of
// intact records and whether trailing bytes past the last intact frame
// were found (a torn tail, which recovery would drop). Damage anywhere
// before the tail returns ErrCorrupt. A concurrent snapshot truncation
// by a live ledger in another process (or goroutine) is tolerated: the
// file is re-read until the content is stable, so a mid-truncation
// frankenread is never misreported as corruption.
func VerifyWAL(path string) (records int, torn bool, err error) {
	err = readConsistent(path, func(data []byte) error {
		records, torn = 0, false
		size, serr := scanFrames(data, func(uint64, []byte) { records++ })
		if serr != nil {
			return serr
		}
		torn = size != int64(len(data))
		return nil
	})
	if err != nil {
		return records, false, err
	}
	return records, torn, nil
}

// SetAppendHook installs a function called after every successful
// append (outside the ledger lock) with the record's sequence number.
// Hooks are delivered in sequence order even when appends commit
// concurrently through a cohort: each append waits for its
// predecessor's hook to finish before invoking its own, so a hook
// observing seq N has already observed 1..N-1 (WAL shipping depends on
// this). Used by crash tests to die at the worst possible moments; nil
// removes it.
func (l *Ledger) SetAppendHook(fn func(seq uint64)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.hook = fn
}

// LastSeq returns the last assigned sequence number.
func (l *Ledger) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// SnapshotSeq returns the sequence number covered by the snapshot file.
func (l *Ledger) SnapshotSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapSeq
}

// NeedsSnapshot reports whether WAL records exist past the snapshot.
func (l *Ledger) NeedsSnapshot() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq > l.snapSeq
}

// appendFrame encodes one WAL frame for (seq, payload) onto dst.
func appendFrame(dst []byte, seq uint64, payload []byte) []byte {
	need := frameHeaderLen + 8 + len(payload)
	off := len(dst)
	if cap(dst)-off < need {
		grown := make([]byte, off, 2*cap(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:off+need]
	f := dst[off:]
	binary.LittleEndian.PutUint32(f, uint32(8+len(payload)))
	binary.LittleEndian.PutUint64(f[frameHeaderLen:], seq)
	copy(f[frameHeaderLen+8:], payload)
	binary.LittleEndian.PutUint32(f[4:], crc32.ChecksumIEEE(f[frameHeaderLen:]))
	return dst
}

// Append commits one record, returning its sequence number. The record
// is on its way to disk (per the fsync policy) before Append returns;
// callers apply the in-memory mutation only after a successful Append.
//
// Under FsyncAlways concurrent callers share one write+fsync (group
// commit; a lone caller is a one-member cohort): the caller that opens a cohort leads it, everyone who
// joins before the leader swaps the batch out rides along, and all of
// them block until the cohort's single fsync completes (or fails, which
// fails every member and the ledger itself).
func (l *Ledger) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	if l.failed {
		cause := l.failedErr
		l.mu.Unlock()
		mAppendErrors.Inc()
		if cause != nil {
			return 0, fmt.Errorf("ledger: append after earlier write failure: %w", cause)
		}
		return 0, fmt.Errorf("ledger: append after earlier write failure")
	}
	l.seq++
	seq := l.seq
	frameLen := frameHeaderLen + 8 + len(payload)

	var err error
	var c *cohort
	var leader bool
	switch {
	case l.mode == FsyncOff:
		l.buf = appendFrame(l.buf, seq, payload)
	case l.mode == FsyncAlways:
		if l.pending == nil && l.spare != nil {
			l.pending, l.spare = l.spare[:0], nil
		}
		l.pending = appendFrame(l.pending, seq, payload)
		if l.cohort == nil {
			l.cohort = &cohort{done: make(chan struct{})}
			leader = true
		}
		c = l.cohort
		c.n++
	default: // FsyncInterval: write now, the sync loop makes it durable
		frame := appendFrame(nil, seq, payload)
		_, err = l.f.Write(frame)
		if err == nil {
			l.size += int64(len(frame))
			l.dirty = true
		}
	}
	if err != nil {
		// The tail may hold a partial frame now; recovery treats it as
		// torn, but a *successful* later append would bury it mid-file
		// as corruption — so fail the ledger instead.
		l.failed = true
		l.failedErr = err
		mAppendErrors.Inc()
		l.mu.Unlock()
		return 0, fmt.Errorf("ledger: append: %w", err)
	}
	// In-order hook delivery: chain one gate per hooked append so hooks
	// fire in sequence order even when cohort members return
	// concurrently.
	hook := l.hook
	var prevGate, gate chan struct{}
	if hook != nil {
		prevGate = l.hookGate
		gate = make(chan struct{})
		l.hookGate = gate
	}
	l.mu.Unlock()

	if c != nil {
		if leader {
			l.flushCohort(c)
		} else {
			<-c.done
		}
		err = c.err
	}
	if gate != nil {
		// Wait out the predecessor's hook so delivery order equals
		// sequence order; always release our own gate — even on a
		// cohort failure — or later appends would block forever.
		if prevGate != nil {
			<-prevGate
		}
		if err == nil {
			hook(seq)
		}
		close(gate)
	}
	if err != nil {
		mAppendErrors.Inc()
		return 0, fmt.Errorf("ledger: append: %w", err)
	}
	mAppends.Inc()
	mAppendBytes.Add(uint64(frameLen))
	return seq, nil
}

// flushCohort writes and fsyncs every frame accumulated for c, as its
// leader. The batch swap happens under l.mu — frame accumulation and
// cohort membership are updated atomically by Append, so the swapped
// batch holds exactly the cohort's records — while the write+fsync
// happens under syncMu only, letting the next cohort form concurrently.
func (l *Ledger) flushCohort(c *cohort) {
	start := time.Now()
	l.syncMu.Lock()
	defer l.syncMu.Unlock()

	// Join window: appenders released by the previous flush are racing
	// to rejoin right now. Seal the batch only once membership stops
	// growing (bounded scheduler yields, no clock), so steady-state
	// batches approach the full set of concurrent committers instead of
	// alternating halves of it. A lone appender breaks out after one
	// yield — nanoseconds next to the fsync it is about to pay.
	prev := 0
	for spins := 0; spins < 64; spins++ {
		l.mu.Lock()
		n := c.n
		l.mu.Unlock()
		if n == prev {
			break
		}
		prev = n
		runtime.Gosched()
	}

	l.mu.Lock()
	batch := l.pending
	l.pending = nil
	l.cohort = nil // appends from here on open the next cohort
	f := l.f
	l.mu.Unlock()

	_, err := f.Write(batch)
	if err == nil {
		err = l.fsync(f)
	}

	l.mu.Lock()
	if err != nil {
		l.failed = true
		if l.failedErr == nil {
			l.failedErr = err
		}
	} else {
		l.size += int64(len(batch))
		if cap(batch) > cap(l.spare) {
			l.spare = batch[:0]
		}
	}
	l.mu.Unlock()

	c.err = err
	close(c.done)
	mGroupCommitBatches.Inc()
	mGroupCommitRecords.Observe(float64(c.n))
	mGroupCommitSeconds.Observe(time.Since(start).Seconds())
}

// flushLocked writes buffered FsyncOff frames to the file.
func (l *Ledger) flushLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	n, err := l.f.Write(l.buf)
	if err != nil {
		l.failed = true
		l.failedErr = err
		return err
	}
	l.size += int64(n)
	l.buf = l.buf[:0]
	return nil
}

// fsync syncs f, timing the call and consulting the injected test
// fault. Callers own whatever lock discipline their path requires.
func (l *Ledger) fsync(f *os.File) error {
	start := time.Now()
	err := f.Sync()
	mFsyncSeconds.Observe(time.Since(start).Seconds())
	if err == nil && l.syncFault != nil {
		err = l.syncFault()
	}
	return err
}

// InjectSyncFault makes every fsync from now on also report fn's error;
// nil removes the fault. It is the seam tests outside this package use
// to drive an owner's fail-closed path; call it with no append in
// flight.
func (l *Ledger) InjectSyncFault(fn func() error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.syncFault = fn
}

// syncLocked fsyncs the WAL file, timing the call.
func (l *Ledger) syncLocked() error {
	err := l.fsync(l.f)
	l.dirty = false
	return err
}

// Sync flushes buffered frames and fsyncs the WAL. Frames owned by an
// in-flight commit cohort are not touched — their cohort's leader is
// responsible for them, and Append returns only once they are durable.
func (l *Ledger) Sync() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.flushLocked(); err != nil {
		return fmt.Errorf("ledger: flush: %w", err)
	}
	if err := l.syncLocked(); err != nil {
		l.failed = true
		if l.failedErr == nil {
			l.failedErr = err
		}
		return err
	}
	return nil
}

// syncLoop is the FsyncInterval timer.
func (l *Ledger) syncLoop(interval time.Duration) {
	defer close(l.exited)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.dirty && !l.failed {
				if err := l.syncLocked(); err != nil {
					// The unsynced tail may be torn on disk now; a later
					// successful append would bury it mid-file as
					// corruption. Fail the ledger closed — the documented
					// contract — rather than only logging.
					l.failed = true
					l.failedErr = err
					l.logger.Error("ledger: interval fsync failed; ledger fails closed", "err", err)
				}
			}
			l.mu.Unlock()
		case <-l.stop:
			return
		}
	}
}

// WriteSnapshot atomically commits a full-state snapshot covering seq
// (the owner captures state and its ledger's LastSeq under one lock so
// they agree). The WAL is truncated when — and only when — no records
// past seq exist; otherwise it is kept and replay relies on sequence
// numbers to skip the records the snapshot already covers.
func (l *Ledger) WriteSnapshot(state []byte, seq uint64) error {
	start := time.Now()
	err := l.writeSnapshot(state, seq)
	mSnapshotSeconds.Observe(time.Since(start).Seconds())
	l.noteSnapshot(err)
	if err != nil {
		mSnapshots.With("error").Inc()
		return err
	}
	mSnapshots.With("ok").Inc()
	mSnapshotBytes.Set(int64(len(state)))
	return nil
}

// commitSnapshotLocked writes raw to snapshot.json.tmp (fsynced unless
// the policy is off) and renames it into place. Callers hold l.mu.
func (l *Ledger) commitSnapshotLocked(raw []byte) error {
	path := SnapshotPath(l.dir)
	tmp := path + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return fmt.Errorf("ledger: snapshot: %w", err)
	}
	if _, err := tf.Write(raw); err != nil {
		tf.Close()
		return fmt.Errorf("ledger: snapshot: %w", err)
	}
	if l.mode != FsyncOff {
		if err := tf.Sync(); err != nil {
			tf.Close()
			return fmt.Errorf("ledger: snapshot: %w", err)
		}
	}
	if err := tf.Close(); err != nil {
		return fmt.Errorf("ledger: snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("ledger: snapshot: %w", err)
	}
	return nil
}

// truncateWALLocked discards the WAL file and any buffered frames.
// Callers hold truncMu exclusively (no reader is mid-scan) and l.mu.
func (l *Ledger) truncateWALLocked() error {
	l.buf = l.buf[:0]
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("ledger: truncate WAL: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	l.size = 0
	l.dirty = false
	return nil
}

func (l *Ledger) writeSnapshot(state []byte, seq uint64) error {
	raw, err := json.Marshal(snapshotFile{Seq: seq, State: state})
	if err != nil {
		return fmt.Errorf("ledger: snapshot: %w", err)
	}
	// syncMu first: a group-commit leader may be mid-write outside l.mu,
	// and truncating underneath it would corrupt the WAL. truncMu next:
	// an in-process reader (ReadEntries) may be mid-scan of the file
	// outside l.mu, and truncating underneath it would make a healthy
	// WAL read as corrupt.
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.truncMu.Lock()
	defer l.truncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.commitSnapshotLocked(raw); err != nil {
		return err
	}
	if seq > l.snapSeq {
		l.snapSeq = seq
	}
	if l.seq == seq && !l.failed && len(l.pending) == 0 {
		// Nothing appended past the snapshot: the whole WAL (and any
		// buffered frames, all covered by the state we just committed)
		// can go. A crash before the truncate is harmless — replay
		// skips records at or below snapSeq. Frames still pending for a
		// forming cohort are not covered by the snapshot and keep the
		// WAL alive.
		if err := l.truncateWALLocked(); err != nil {
			return err
		}
	}
	l.logger.Debug("ledger snapshot committed", "dir", l.dir, "seq", seq, "bytes", len(state))
	return nil
}

// Reset installs an externally supplied snapshot — replication catch-up
// handing a lagging standby the primary's state. It commits the
// snapshot file, unconditionally truncates the WAL (every record it
// held is covered or superseded by the installed state), and
// fast-forwards the sequence counter to seq. The caller must have
// replaced its in-memory state to match and must not be appending
// concurrently.
func (l *Ledger) Reset(state []byte, seq uint64) error {
	raw, err := json.Marshal(snapshotFile{Seq: seq, State: state})
	if err != nil {
		return fmt.Errorf("ledger: reset: %w", err)
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.truncMu.Lock()
	defer l.truncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.failed {
		return fmt.Errorf("ledger: reset after earlier write failure: %w", l.failedErr)
	}
	if l.cohort != nil || len(l.pending) > 0 {
		return errors.New("ledger: reset with in-flight appends")
	}
	if err := l.commitSnapshotLocked(raw); err != nil {
		return err
	}
	if err := l.truncateWALLocked(); err != nil {
		return err
	}
	l.seq = seq
	l.snapSeq = seq
	l.logger.Info("ledger reset to installed snapshot", "dir", l.dir, "seq", seq, "bytes", len(state))
	return nil
}

// maxSnapshotBackoffTicks caps the failure backoff: after repeated
// failures the snapshotter still probes every 64 intervals rather than
// never again.
const maxSnapshotBackoffTicks = 64

// snapshotBackoffTicks returns how many ticker intervals to skip after
// the n-th consecutive snapshot failure: 2, 4, 8, ... capped.
func snapshotBackoffTicks(failures int) int {
	if failures <= 0 {
		return 0
	}
	if failures >= 6 { // 2<<6 already exceeds the cap
		return maxSnapshotBackoffTicks
	}
	t := 1 << failures
	if t > maxSnapshotBackoffTicks {
		return maxSnapshotBackoffTicks
	}
	return t
}

// noteSnapshot records the outcome of a snapshot attempt for /healthz:
// a failure is remembered (with its time) until a later attempt
// succeeds.
func (l *Ledger) noteSnapshot(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		l.snapErr = err
		l.snapErrAt = time.Now()
	} else {
		l.snapErr = nil
		l.snapErrAt = time.Time{}
	}
}

// LastSnapshotError returns the most recent snapshot failure and when
// it happened; nil after a success (or before any attempt).
func (l *Ledger) LastSnapshotError() (error, time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapErr, l.snapErrAt
}

// Health returns a /healthz document fragment: sequence positions,
// fail-closed state, and the last background snapshot failure if one is
// outstanding — so a disk-full snapshotter is visible to probes instead
// of only to the log.
func (l *Ledger) Health() map[string]any {
	l.mu.Lock()
	defer l.mu.Unlock()
	h := map[string]any{
		"ledgerLastSeq":     l.seq,
		"ledgerSnapshotSeq": l.snapSeq,
		"ledgerFailed":      l.failed,
	}
	if l.failedErr != nil {
		h["ledgerFailedError"] = l.failedErr.Error()
	}
	if l.snapErr != nil {
		h["ledgerLastSnapshotError"] = l.snapErr.Error()
		h["ledgerLastSnapshotErrorAt"] = l.snapErrAt.UTC().Format(time.RFC3339Nano)
	}
	return h
}

// StartSnapshotter runs snapshot (typically the owning server's
// SnapshotNow) every interval while new WAL records exist. Repeated
// failures back off exponentially — skipping 2, 4, ... up to 64 ticks —
// so a persistent fault (disk full) does not flood the log at full tick
// rate; the last failure is surfaced via Health/LastSnapshotError. The
// returned stop function halts it and waits for exit; calling it twice
// is safe.
func (l *Ledger) StartSnapshotter(interval time.Duration, snapshot func() error) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(interval)
		defer t.Stop()
		failures, skip := 0, 0
		for {
			select {
			case <-t.C:
				if skip > 0 {
					skip--
					continue
				}
				if !l.NeedsSnapshot() {
					continue
				}
				if err := snapshot(); err != nil {
					failures++
					skip = snapshotBackoffTicks(failures)
					l.noteSnapshot(err)
					l.logger.Error("ledger: background snapshot failed",
						"err", err, "consecutiveFailures", failures, "backoffTicks", skip)
				} else {
					failures, skip = 0, 0
					l.noteSnapshot(nil)
				}
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}

// Close flushes buffered frames (and fsyncs unless the policy is off)
// and closes the WAL. Close waits for any in-flight commit cohort to
// finish its flush; appends still forming a cohort when Close lands
// fail (their leader finds the file closed) rather than racing it.
func (l *Ledger) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	stop := l.stop
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-l.exited
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.flushLocked()
	if err == nil && l.mode != FsyncOff {
		err = l.syncLocked()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// RecordPos locates one WAL record: its sequence number and the file
// offset just past its frame. Crash-recovery tests use it to truncate a
// WAL copy at every record boundary.
type RecordPos struct {
	Seq uint64
	End int64
}

// ScanOffsets parses a WAL file (without a ledger) and returns every
// complete record's position, in order. Like VerifyWAL it tolerates a
// concurrent snapshot truncation by re-reading until the content is
// stable.
func ScanOffsets(path string) ([]RecordPos, error) {
	var out []RecordPos
	err := readConsistent(path, func(data []byte) error {
		out = out[:0]
		off := 0
		for off < len(data) {
			if len(data)-off < frameHeaderLen {
				break
			}
			length := binary.LittleEndian.Uint32(data[off:])
			if length < 8 || length > maxRecordLen {
				return fmt.Errorf("%w: impossible record length %d at offset %d", ErrCorrupt, length, off)
			}
			end := off + frameHeaderLen + int(length)
			if end > len(data) {
				break
			}
			out = append(out, RecordPos{
				Seq: binary.LittleEndian.Uint64(data[off+frameHeaderLen:]),
				End: int64(end),
			})
			off = end
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CursorResult is one ReadEntries read: the records found plus the
// sequence horizons that were current when the read began, so a
// shipper can compute lag and detect truncation races exactly once.
type CursorResult struct {
	// Entries are the records with sequence numbers in [from, from+max),
	// in order; empty when the caller is at the tip.
	Entries []Entry
	// SnapSeq is the snapshot horizon: records at or below it may be
	// truncated away at any time.
	SnapSeq uint64
	// LastSeq is the last record visible to this read — durable frames
	// plus (in FsyncOff mode) buffered ones. Records still waiting on an
	// in-flight commit cohort are excluded: a shipper must never ship a
	// record whose Append has not yet succeeded.
	LastSeq uint64
}

// ReadEntries is the shipping cursor: it returns up to max records with
// sequence numbers >= from, reading the live WAL without racing
// snapshot truncation (it holds the truncation guard shared, so
// WriteSnapshot waits rather than rewriting the file mid-scan). When
// from falls below the snapshot horizon and the records are gone,
// ReadEntries returns ErrTruncated with the horizon in CursorResult —
// the caller fetches a snapshot and resumes from SnapSeq+1.
func (l *Ledger) ReadEntries(from uint64, max int) (CursorResult, error) {
	if max <= 0 {
		max = 1 << 10
	}
	l.truncMu.RLock()
	defer l.truncMu.RUnlock()

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return CursorResult{}, ErrClosed
	}
	size := l.size
	snapSeq := l.snapSeq
	f := l.f
	var buffered []byte
	if len(l.buf) > 0 {
		buffered = append([]byte(nil), l.buf...)
	}
	l.mu.Unlock()

	// The file region [0, size) is immutable while we hold truncMu
	// shared: appends only extend the file past size, and truncation
	// waits on the guard. A group-commit leader may be writing past
	// size right now — those frames belong to appends that have not
	// returned yet and are deliberately not visible to this read.
	data := make([]byte, size, size+int64(len(buffered)))
	if size > 0 {
		if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), data); err != nil {
			return CursorResult{}, fmt.Errorf("ledger: cursor read: %w", err)
		}
	}
	data = append(data, buffered...)

	res := CursorResult{SnapSeq: snapSeq, LastSeq: snapSeq}
	firstSeen := uint64(0)
	_, err := scanFrames(data, func(seq uint64, payload []byte) {
		if firstSeen == 0 {
			firstSeen = seq
		}
		if seq > res.LastSeq {
			res.LastSeq = seq
		}
		if seq >= from && len(res.Entries) < max {
			res.Entries = append(res.Entries, Entry{Seq: seq, Data: payload})
		}
	})
	if err != nil {
		return CursorResult{}, err
	}
	// Records below the requested point that are no longer on disk are
	// unreachable by shipping; the caller must catch up via snapshot.
	// (from == firstSeen or later is servable; from past the tip is an
	// empty read, not an error.)
	lowest := snapSeq + 1
	if firstSeen != 0 && firstSeen < lowest {
		lowest = firstSeen
	}
	if from < lowest {
		return res, ErrTruncated
	}
	return res, nil
}
