// Package audit records authorization decisions, preserving the audit
// trail that delegate proxies create: "An important difference between
// the two approaches to cascaded authorization is that the use of a
// delegate proxy leaves an audit trail since the new proxy identifies
// the intermediate server" (§3.4).
package audit

import (
	"fmt"
	"strings"
	"time"

	"proxykit/internal/principal"
)

// Outcome classifies a decision.
type Outcome uint8

// Decision outcomes.
const (
	OutcomeGranted Outcome = iota + 1
	OutcomeDenied
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeGranted:
		return "GRANTED"
	case OutcomeDenied:
		return "DENIED"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// Record is one auditable decision. Seq, Prev, and Hash are assigned
// by Journal.Append; everything else is supplied by the emitter.
type Record struct {
	// Seq is the record's 1-based position in its journal.
	Seq uint64
	// Time of the decision.
	Time time.Time
	// Kind classifies the decision point (one of the Kind* constants).
	Kind string
	// Server that decided.
	Server principal.ID
	// TraceID joins the record to the RPC trace span (internal/obs)
	// that carried the request; "" for local/in-process calls.
	TraceID string
	// Grantor whose rights were exercised (zero for direct requests by
	// the presenter's own identity).
	Grantor principal.ID
	// Presenters are the authenticated identities that made the request.
	Presenters []principal.ID
	// Trail lists delegate-cascade intermediates, in chain order.
	Trail []principal.ID
	// Object and Op name the requested action.
	Object string
	Op     string
	// Outcome and Reason summarize the decision.
	Outcome Outcome
	Reason  string
	// Detail carries kind-specific fields (amounts, check numbers,
	// next-hop banks) as strings.
	Detail map[string]string
	// Prev is the hex SHA-256 chain hash of the preceding record
	// ("" for the first), Hash the record's own: SHA-256 over the
	// canonical JSON with Hash empty.
	Prev string
	Hash string
}

// String renders one line suitable for an audit log file.
func (r Record) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %s %q %q", r.Time.UTC().Format(time.RFC3339), r.Server, r.Outcome, r.Op, r.Object)
	if r.Kind != "" {
		fmt.Fprintf(&b, " kind=%s", r.Kind)
	}
	if r.TraceID != "" {
		fmt.Fprintf(&b, " trace=%s", r.TraceID)
	}
	if !r.Grantor.IsZero() {
		fmt.Fprintf(&b, " grantor=%s", r.Grantor)
	}
	if len(r.Presenters) > 0 {
		parts := make([]string, len(r.Presenters))
		for i, p := range r.Presenters {
			parts[i] = p.String()
		}
		fmt.Fprintf(&b, " by=%s", strings.Join(parts, ","))
	}
	if len(r.Trail) > 0 {
		parts := make([]string, len(r.Trail))
		for i, p := range r.Trail {
			parts[i] = p.String()
		}
		fmt.Fprintf(&b, " via=%s", strings.Join(parts, "->"))
	}
	if r.Reason != "" {
		fmt.Fprintf(&b, " reason=%q", r.Reason)
	}
	return b.String()
}

// Log is a bounded in-memory audit log: the original package API, now
// a thin view over a hash-chained Journal with a memory-only sink, so
// records appended through it still carry Seq/Prev/Hash and can be
// chain-verified. The zero value is unusable; use NewLog.
type Log struct {
	j *Journal
}

// NewLog returns a log retaining up to capacity records (oldest evicted
// first).
func NewLog(capacity int) *Log {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Log{j: NewMemory(capacity)}
}

// Journal exposes the underlying journal (for chain stats, HTTP
// serving, or attaching the same sink to a server).
func (l *Log) Journal() *Journal { return l.j }

// Append seals a record into the log's chain, evicting the oldest
// retained record when full.
func (l *Log) Append(r Record) {
	l.j.Append(r)
}

// Records returns the retained records, oldest first.
func (l *Log) Records() []Record {
	return l.j.Tail(0)
}

// Len reports the number of retained records.
func (l *Log) Len() int {
	return len(l.j.Tail(0))
}
