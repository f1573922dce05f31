package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"strings"
	"sync"
	"time"
)

// Trace is the per-RPC trace context carried through the transport
// wire envelope: a request (trace) ID shared by every span of one
// logical operation, the current span ID, and the parent span ID (empty
// for a root span). IDs are 8 random bytes rendered as hex — trace
// correlation, not security tokens.
type Trace struct {
	// TraceID identifies the whole request tree.
	TraceID string `json:"traceId"`
	// SpanID identifies this hop.
	SpanID string `json:"spanId"`
	// Parent is the calling hop's span ID, empty at the root.
	Parent string `json:"parent,omitempty"`
}

func newID() string {
	return fmt.Sprintf("%016x", rand.Uint64())
}

// NewTrace starts a new trace with a fresh root span.
func NewTrace() Trace {
	return Trace{TraceID: newID(), SpanID: newID()}
}

// Child derives the context for an outgoing call made while handling
// this span.
func (t Trace) Child() Trace {
	return Trace{TraceID: t.TraceID, SpanID: newID(), Parent: t.SpanID}
}

// String renders the wire form "traceID-spanID". The zero Trace renders
// as "".
func (t Trace) String() string {
	if t.TraceID == "" {
		return ""
	}
	return t.TraceID + "-" + t.SpanID
}

// ParseTrace parses the wire form produced by String. The sender's span
// becomes the Parent of the receiver-side context; the receiver gets a
// fresh SpanID. Malformed or empty input yields a new root trace, so a
// server span is always well-formed.
func ParseTrace(s string) Trace {
	traceID, spanID, ok := strings.Cut(s, "-")
	if !ok || traceID == "" || spanID == "" {
		return NewTrace()
	}
	return Trace{TraceID: traceID, SpanID: newID(), Parent: spanID}
}

// Span is one completed, timed unit of work — an RPC as seen by the
// server, or a client call.
type Span struct {
	Trace
	// Seq is the span's position in this process's span log — a dense
	// monotonic cursor assigned by Record, starting at 1. Pollers feed
	// the highest Seq they have seen back as /traces?since=.
	Seq uint64 `json:"seq,omitempty"`
	// Kind is "server" or "client".
	Kind string `json:"kind"`
	// Method is the RPC method name.
	Method string `json:"method"`
	// Start is when the span began.
	Start time.Time `json:"start"`
	// Duration is the span's wall-clock length.
	Duration time.Duration `json:"durationNs"`
	// Err is the error text for failed spans, empty on success.
	Err string `json:"err,omitempty"`
	// Note carries an optional annotation (e.g. whether a chain
	// verification was served from the verified-chain cache).
	Note string `json:"note,omitempty"`
}

// spansDropped counts spans evicted from a full ring before any poller
// could have read them at that capacity — the signal to raise
// -trace-buffer or attach a -trace-file sink.
var spansDropped = Default.NewCounter("proxykit_obs_spans_dropped_total",
	"Spans evicted from the in-memory span ring because it was full.")

// SpanLog is a bounded ring of recently completed spans, served by the
// metrics listener at /traces for post-hoc RPC inspection. Every span
// gets a dense monotonic Seq so pollers can page incrementally, and an
// optional JSONL file sink retains what the ring evicts.
type SpanLog struct {
	mu       sync.Mutex
	buf      []Span
	start    int // index of the oldest retained span
	count    int
	total    uint64 // Seq of the newest span ever recorded
	f        *os.File
	writeErr uint64
}

// NewSpanLog returns a log retaining the last n spans.
func NewSpanLog(n int) *SpanLog {
	if n <= 0 {
		n = 256
	}
	return &SpanLog{buf: make([]Span, n)}
}

// Spans is the process-wide span log the transport records into.
var Spans = NewSpanLog(256)

// Record appends a completed span, assigning its Seq and evicting the
// oldest when full (counted by proxykit_obs_spans_dropped_total). With
// a sink attached the span is also appended as one JSONL line.
func (l *SpanLog) Record(s Span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	s.Seq = l.total
	idx := (l.start + l.count) % len(l.buf)
	l.buf[idx] = s
	if l.count < len(l.buf) {
		l.count++
	} else {
		l.start = (l.start + 1) % len(l.buf)
		spansDropped.Inc()
	}
	if l.f != nil {
		line, err := json.Marshal(s)
		if err == nil {
			// One Write call per span: O_APPEND makes the line append
			// atomic with respect to other writers, the audit-journal
			// idiom applied to the span stream.
			_, err = l.f.Write(append(line, '\n'))
		}
		if err != nil {
			l.writeErr++
		}
	}
}

// Resize changes the ring capacity, retaining the newest min(n, count)
// spans. Invalid n keeps the 256 default.
func (l *SpanLog) Resize(n int) {
	if n <= 0 {
		n = 256
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	keep := l.count
	if keep > n {
		keep = n
	}
	buf := make([]Span, n)
	for i := 0; i < keep; i++ {
		// The last `keep` spans, oldest of those first.
		buf[i] = l.buf[(l.start+l.count-keep+i)%len(l.buf)]
	}
	l.buf, l.start, l.count = buf, 0, keep
}

// SetSink attaches a JSONL file sink at path: every subsequently
// recorded span is appended as one JSON line, so the file retains the
// full span stream while the ring holds only the recent window. The
// file is opened O_APPEND; restarts extend it.
func (l *SpanLog) SetSink(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return fmt.Errorf("obs: open span sink: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		_ = l.f.Close()
	}
	l.f = f
	return nil
}

// CloseSink detaches and closes the file sink, if any.
func (l *SpanLog) CloseSink() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// Recent returns the retained spans, newest first.
func (l *SpanLog) Recent() []Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Span, 0, l.count)
	for i := l.count - 1; i >= 0; i-- {
		out = append(out, l.buf[(l.start+i)%len(l.buf)])
	}
	return out
}

// Total returns how many spans were ever recorded (including evicted).
func (l *SpanLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Page returns retained spans with Seq > since, oldest first, at most
// limit (unlimited when limit <= 0), keeping only spans whose TraceID
// equals traceID when it is non-empty. The returned cursor is the
// highest Seq included (since when nothing matched) — feed it back as
// the next request's since. oldest is the oldest retained Seq (0 when
// empty); a since below oldest-1 means spans rotated out of the ring
// (and are only in the file sink, if one is attached).
func (l *SpanLog) Page(since uint64, limit int, traceID string) (spans []Span, cursor, oldest, total uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cursor = since
	if l.count > 0 {
		oldest = l.buf[l.start].Seq
	}
	for i := 0; i < l.count; i++ {
		s := l.buf[(l.start+i)%len(l.buf)]
		if s.Seq <= since {
			continue
		}
		if traceID != "" && s.TraceID != traceID {
			continue
		}
		spans = append(spans, s)
		cursor = s.Seq
		if limit > 0 && len(spans) >= limit {
			break
		}
	}
	return spans, cursor, oldest, l.total
}

// WriteJSON renders the retained spans, newest first.
func (l *SpanLog) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Total uint64 `json:"total"`
		Spans []Span `json:"spans"`
	}{l.Total(), l.Recent()})
}
