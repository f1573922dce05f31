package faultpoint

import (
	"errors"
	"net"
	"testing"
	"time"
)

func TestParse(t *testing.T) {
	inj, err := Parse("acct.deposit-check:drop=0.3,dup=0.2;acct.*:delay=5ms@0.5;*:err=0.1", 1)
	if err != nil {
		t.Fatal(err)
	}
	rules := inj.Rules()
	if len(rules) != 3 {
		t.Fatalf("rules = %d, want 3", len(rules))
	}
	if rules[0].Drop != 0.3 || rules[0].Dup != 0.2 || rules[0].Method != "acct.deposit-check" {
		t.Errorf("rule 0 = %+v", rules[0])
	}
	if rules[1].Delay != 5*time.Millisecond || rules[1].DelayProb != 0.5 {
		t.Errorf("rule 1 = %+v", rules[1])
	}
	if rules[2].Err != 0.1 || rules[2].Method != "*" {
		t.Errorf("rule 2 = %+v", rules[2])
	}
}

func TestParseEmpty(t *testing.T) {
	inj, err := Parse("   ", 1)
	if err != nil || inj != nil {
		t.Fatalf("Parse(blank) = %v, %v; want nil, nil", inj, err)
	}
	// A nil injector is usable: it never injects.
	if d := inj.Decide("anything"); d.Action != ActNone || d.Delay != 0 {
		t.Fatalf("nil injector decided %+v", d)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"no-colon-rule",
		"m:drop=1.5",
		"m:drop=x",
		"m:unknown=1",
		"m:delay=notadur",
		"m:partition=maybe",
		":drop=0.5",
		"m:drop",
	} {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestRuleMatching(t *testing.T) {
	cases := []struct {
		rule, method string
		want         bool
	}{
		{"*", "anything", true},
		{"acct.*", "acct.deposit-check", true},
		{"acct.*", "authz.grant", false},
		{"acct.deposit-check", "acct.deposit-check", true},
		{"acct.deposit-check", "acct.deposit", false},
	}
	for _, c := range cases {
		if got := (Rule{Method: c.rule}).matches(c.method); got != c.want {
			t.Errorf("Rule(%q).matches(%q) = %v, want %v", c.rule, c.method, got, c.want)
		}
	}
}

// TestDeterminism: same seed, same call sequence, same decisions.
func TestDeterminism(t *testing.T) {
	mk := func() *Injector {
		return New(42, Rule{Method: "*", Drop: 0.3, Dup: 0.2, Err: 0.1})
	}
	a, b := mk(), mk()
	for i := 0; i < 1000; i++ {
		da, db := a.Decide("m"), b.Decide("m")
		if da != db {
			t.Fatalf("call %d: %+v != %+v", i, da, db)
		}
	}
}

// TestProbabilities: over many rolls the empirical rates land near the
// configured ones, and drops split between request and response.
func TestProbabilities(t *testing.T) {
	inj := New(7, Rule{Method: "*", Drop: 0.3, Dup: 0.2})
	const n = 20000
	counts := map[Action]int{}
	for i := 0; i < n; i++ {
		counts[inj.Decide("m").Action]++
	}
	drops := counts[ActDropRequest] + counts[ActDropResponse]
	if f := float64(drops) / n; f < 0.25 || f > 0.35 {
		t.Errorf("drop rate = %v, want ~0.3", f)
	}
	if counts[ActDropRequest] == 0 || counts[ActDropResponse] == 0 {
		t.Error("drops never split between request and response")
	}
	// dup only rolls when drop didn't trigger: expect ~0.7*0.2 = 0.14.
	if f := float64(counts[ActDuplicate]) / n; f < 0.10 || f > 0.18 {
		t.Errorf("dup rate = %v, want ~0.14", f)
	}
}

// TestPartitionAndEnable: a partition rule fails every matching call,
// and a nil injector, which is how a transport heals one
// (SetInjector(nil)), decides nothing.
func TestPartitionAndEnable(t *testing.T) {
	inj := New(1, Rule{Method: "svc.*", Partition: true})
	if d := inj.Decide("svc.call"); d.Action != ActPartition {
		t.Fatalf("decision = %+v, want partition", d)
	}
	if d := inj.Decide("other.call"); d.Action != ActNone {
		t.Fatalf("unmatched method decided %+v", d)
	}
	var healed *Injector
	if d := healed.Decide("svc.call"); d != (Decision{}) {
		t.Fatalf("nil injector decided %+v", d)
	}
}

// TestErrorIsNetTimeout: injected drops look like deadline expiries so
// the TCP client's timeout path and retry classifier treat them as
// such; partitions are failures but not timeouts.
func TestErrorIsNetTimeout(t *testing.T) {
	var nerr net.Error
	drop := &Error{Action: ActDropResponse, Method: "m"}
	if !errors.As(error(drop), &nerr) || !nerr.Timeout() {
		t.Errorf("drop error %v is not a net timeout", drop)
	}
	if !errors.Is(drop, ErrInjected) {
		t.Error("drop error does not unwrap to ErrInjected")
	}
	part := &Error{Action: ActPartition, Method: "m"}
	if part.Timeout() {
		t.Error("partition error claims to be a timeout")
	}
}

func TestDelayProbability(t *testing.T) {
	inj := New(3, Rule{Method: "*", Delay: time.Millisecond, DelayProb: 0.5})
	const n = 4000
	delayed := 0
	for i := 0; i < n; i++ {
		if inj.Decide("m").Delay > 0 {
			delayed++
		}
	}
	if f := float64(delayed) / n; f < 0.45 || f > 0.55 {
		t.Errorf("delay rate = %v, want ~0.5", f)
	}
}
