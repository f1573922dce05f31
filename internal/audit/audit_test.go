package audit

import (
	"strings"
	"testing"
	"time"

	"proxykit/internal/principal"
)

var (
	alice = principal.New("alice", "ISI.EDU")
	bob   = principal.New("bob", "ISI.EDU")
	spool = principal.New("spooler", "ISI.EDU")
	srv   = principal.New("file/sv1", "ISI.EDU")
)

func sample(op string, outcome Outcome) Record {
	return Record{
		Time:       time.Unix(1_000_000, 0),
		Server:     srv,
		Grantor:    alice,
		Presenters: []principal.ID{bob},
		Trail:      []principal.ID{spool},
		Object:     "/etc/motd",
		Op:         op,
		Outcome:    outcome,
		Reason:     "quota exceeded",
	}
}

func TestAppendAndRecords(t *testing.T) {
	l := NewLog(10)
	l.Append(sample("read", OutcomeGranted))
	l.Append(sample("write", OutcomeDenied))
	rs := l.Records()
	if len(rs) != 2 || l.Len() != 2 {
		t.Fatalf("records = %d", len(rs))
	}
	if rs[0].Op != "read" || rs[1].Op != "write" {
		t.Fatalf("order wrong: %v", rs)
	}
}

func TestRingEviction(t *testing.T) {
	l := NewLog(3)
	for i, op := range []string{"a", "b", "c", "d", "e"} {
		r := sample(op, OutcomeGranted)
		r.Time = time.Unix(int64(i), 0)
		l.Append(r)
	}
	rs := l.Records()
	if len(rs) != 3 {
		t.Fatalf("len = %d", len(rs))
	}
	if rs[0].Op != "c" || rs[2].Op != "e" {
		t.Fatalf("eviction order wrong: %v", []string{rs[0].Op, rs[1].Op, rs[2].Op})
	}
}

// TestByGrantorAndIntermediate: each retained record keeps the grantor
// its rights came from and its delegation trail, the fields the paper's
// audit-trail query (§3.4) reads.
func TestByGrantorAndIntermediate(t *testing.T) {
	l := NewLog(10)
	l.Append(sample("read", OutcomeGranted))
	other := sample("read", OutcomeGranted)
	other.Grantor = bob
	other.Trail = nil
	l.Append(other)

	rs := l.Records()
	if len(rs) != 2 {
		t.Fatalf("records = %d", len(rs))
	}
	if rs[0].Grantor != alice || len(rs[0].Trail) != 1 || rs[0].Trail[0] != spool {
		t.Fatalf("rec0 grantor/trail = %v/%v", rs[0].Grantor, rs[0].Trail)
	}
	if rs[1].Grantor != bob || len(rs[1].Trail) != 0 {
		t.Fatalf("rec1 grantor/trail = %v/%v", rs[1].Grantor, rs[1].Trail)
	}
}

func TestRecordString(t *testing.T) {
	s := sample("read", OutcomeDenied).String()
	for _, want := range []string{"DENIED", "file/sv1@ISI.EDU", "grantor=alice@ISI.EDU", "by=bob@ISI.EDU", "via=spooler@ISI.EDU", `reason="quota exceeded"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("record %q missing %q", s, want)
		}
	}
	minimal := Record{Time: time.Unix(0, 0), Server: srv, Op: "read", Object: "/x", Outcome: OutcomeGranted}
	if s := minimal.String(); strings.Contains(s, "grantor=") || strings.Contains(s, "via=") {
		t.Fatalf("minimal record has empty fields: %q", s)
	}
}

func TestOutcomeString(t *testing.T) {
	if OutcomeGranted.String() != "GRANTED" || OutcomeDenied.String() != "DENIED" {
		t.Fatal("outcome strings")
	}
	if Outcome(9).String() != "outcome(9)" {
		t.Fatal(Outcome(9).String())
	}
}

func TestZeroCapacityDefaults(t *testing.T) {
	l := NewLog(0)
	l.Append(sample("read", OutcomeGranted))
	if l.Len() != 1 {
		t.Fatal("default capacity log broken")
	}
}
