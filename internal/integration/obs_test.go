package integration

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"proxykit/internal/accounting"
	"proxykit/internal/audit"
	"proxykit/internal/obs"
	"proxykit/internal/principal"
	"proxykit/internal/proxy"
	"proxykit/internal/svc"
)

// snapshot reads the process-global registry via its JSON rendering, so
// tests can assert deltas without reaching into other packages'
// unexported metric variables.
type snapshot map[string]any

func takeSnapshot(t *testing.T) snapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc snapshot
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// counter returns an unlabeled counter/gauge value, 0 if absent.
func (s snapshot) counter(name string) float64 {
	v, _ := s[name].(float64)
	return v
}

// labeled returns one child of a labeled family ("outcome=ok" style
// key), 0 if absent.
func (s snapshot) labeled(name, key string) float64 {
	fam, _ := s[name].(map[string]any)
	v, _ := fam[key].(float64)
	return v
}

// labeledSum sums every child of a labeled family.
func (s snapshot) labeledSum(name string) float64 {
	fam, _ := s[name].(map[string]any)
	var total float64
	for _, v := range fam {
		if f, ok := v.(float64); ok {
			total += f
		}
	}
	return total
}

// histCount returns a histogram child's observation count; works for
// labeled ("method=x") and unlabeled ("") families.
func (s snapshot) histCount(name, key string) float64 {
	switch fam := s[name].(type) {
	case map[string]any:
		if h, ok := fam["count"].(float64); ok {
			return h // unlabeled histogram
		}
		child, _ := fam[key].(map[string]any)
		v, _ := child["count"].(float64)
		return v
	}
	return 0
}

func (s snapshot) histCountSum(name string) float64 {
	fam, _ := s[name].(map[string]any)
	if c, ok := fam["count"].(float64); ok {
		return c
	}
	var total float64
	for _, v := range fam {
		if child, ok := v.(map[string]any); ok {
			if c, ok := child["count"].(float64); ok {
				total += c
			}
		}
	}
	return total
}

// TestMetricsOnAuthorizeFlow runs the full group → authz → end-server
// flow over real TCP and asserts the counters the ISSUE's acceptance
// criteria name actually move: RPC request counts and latency
// histograms on both sides, envelope opens, per-outcome authorization
// decisions, grant counters, and the cascade-chain-length histogram.
func TestMetricsOnAuthorizeFlow(t *testing.T) {
	d := newDeployment(t)
	fileID := principal.New("file/srv1", realm)
	before := takeSnapshot(t)

	gc := svc.NewGroupClient(d.dial("groups"), d.bob, nil)
	gp, err := gc.Grant(svc.GroupGrantParams{Groups: []string{"staff"}, Lifetime: time.Hour, Delegate: true})
	if err != nil {
		t.Fatal(err)
	}
	ac := svc.NewAuthzClient(d.dial("authz"), d.bob, nil)
	ap, err := ac.Grant(svc.GrantParams{
		EndServer:    fileID,
		Lifetime:     time.Hour,
		Delegate:     true,
		GroupProxies: []*proxy.Presentation{gp.PresentDelegate()},
	})
	if err != nil {
		t.Fatal(err)
	}
	ec := svc.NewEndClient(d.dial("file"), d.bob, nil)
	if _, err := ec.Request(svc.RequestParams{
		Object: "/shared/doc", Op: "read",
		Proxies: []*proxy.Presentation{ap.PresentDelegate()},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := ec.Request(svc.RequestParams{
		Object: "/shared/doc", Op: "write",
		Proxies: []*proxy.Presentation{ap.PresentDelegate()},
	}); err == nil || !strings.Contains(err.Error(), "denied") {
		t.Fatalf("write err = %v", err)
	}

	after := takeSnapshot(t)
	delta := func(get func(snapshot) float64) float64 { return get(after) - get(before) }

	// The flow made at least 4 RPCs (group grant, authz grant, 2
	// requests), seen by both server and client instrumentation.
	if n := delta(func(s snapshot) float64 { return s.labeledSum("proxykit_rpc_requests_total") }); n < 4 {
		t.Errorf("rpc_requests_total delta = %v, want >= 4", n)
	}
	if n := delta(func(s snapshot) float64 { return s.labeledSum("proxykit_rpc_client_requests_total") }); n < 4 {
		t.Errorf("rpc_client_requests_total delta = %v, want >= 4", n)
	}
	if n := delta(func(s snapshot) float64 { return s.histCountSum("proxykit_rpc_latency_seconds") }); n < 4 {
		t.Errorf("rpc_latency_seconds count delta = %v, want >= 4", n)
	}
	if n := delta(func(s snapshot) float64 { return s.labeled("proxykit_rpc_requests_total", "method=end.request") }); n != 2 {
		t.Errorf("rpc_requests_total{method=end.request} delta = %v, want 2", n)
	}

	// Sealed envelopes were opened successfully on every hop.
	if n := delta(func(s snapshot) float64 { return s.labeled("proxykit_envelope_open_total", "outcome=ok") }); n < 4 {
		t.Errorf("envelope_open_total{ok} delta = %v, want >= 4", n)
	}

	// One grant, one deny at the end-server; the granted decision came
	// through a verified proxy chain, so its length was observed.
	if n := delta(func(s snapshot) float64 { return s.labeled("proxykit_authz_decisions_total", "outcome=granted") }); n != 1 {
		t.Errorf("authz_decisions_total{granted} delta = %v, want 1", n)
	}
	if n := delta(func(s snapshot) float64 { return s.labeled("proxykit_authz_decisions_total", "outcome=denied") }); n != 1 {
		t.Errorf("authz_decisions_total{denied} delta = %v, want 1", n)
	}
	if n := delta(func(s snapshot) float64 { return s.histCount("proxykit_authz_chain_length", "") }); n != 1 {
		t.Errorf("authz_chain_length count delta = %v, want 1", n)
	}

	// Group and authorization servers each granted once.
	if n := delta(func(s snapshot) float64 { return s.labeled("proxykit_group_grants_total", "outcome=granted") }); n != 1 {
		t.Errorf("group_grants_total{granted} delta = %v, want 1", n)
	}
	if n := delta(func(s snapshot) float64 { return s.labeled("proxykit_authzsrv_grants_total", "outcome=granted") }); n != 1 {
		t.Errorf("authzsrv_grants_total{granted} delta = %v, want 1", n)
	}

	// Spans were recorded for the calls.
	if obs.Spans.Total() == 0 {
		t.Error("no spans recorded")
	}
}

// TestMetricsOnAccountingFlow asserts the accounting instrumentation:
// balance reads, check writes, deposits (including the accept-once
// duplicate rejection), and the clearing-hop histogram.
func TestMetricsOnAccountingFlow(t *testing.T) {
	d := newDeployment(t)
	before := takeSnapshot(t)

	aliceAcct := svc.NewAcctClient(d.dial("bank"), d.alice, nil)
	bobAcct := svc.NewAcctClient(d.dial("bank"), d.bob, nil)
	if err := aliceAcct.CreateAccount("alice"); err != nil {
		t.Fatal(err)
	}
	if err := bobAcct.CreateAccount("bob"); err != nil {
		t.Fatal(err)
	}
	if err := d.bank.Mint("alice", "dollars", 300); err != nil {
		t.Fatal(err)
	}
	check, err := accounting.WriteCheck(accounting.WriteCheckParams{
		Payor: d.alice, Bank: d.bank.ID, Account: "alice",
		Payee: d.bob.ID, Currency: "dollars", Amount: 120,
		Lifetime: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	endorsed, err := check.Endorse(d.bob, d.bank.ID, d.bank.ID, d.bank.Global("bob"), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bobAcct.DepositCheck(endorsed, "bob"); err != nil {
		t.Fatal(err)
	}
	if _, err := bobAcct.DepositCheck(endorsed, "bob"); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, err := bobAcct.Balance("bob", "dollars"); err != nil {
		t.Fatal(err)
	}

	after := takeSnapshot(t)
	delta := func(get func(snapshot) float64) float64 { return get(after) - get(before) }

	if n := delta(func(s snapshot) float64 { return s.counter("proxykit_acct_checks_written_total") }); n != 1 {
		t.Errorf("checks_written delta = %v, want 1", n)
	}
	if n := delta(func(s snapshot) float64 { return s.labeled("proxykit_acct_check_deposits_total", "outcome=ok") }); n != 1 {
		t.Errorf("deposits{ok} delta = %v, want 1", n)
	}
	if n := delta(func(s snapshot) float64 { return s.labeled("proxykit_acct_check_deposits_total", "outcome=duplicate") }); n != 1 {
		t.Errorf("deposits{duplicate} delta = %v, want 1", n)
	}
	if n := delta(func(s snapshot) float64 { return s.counter("proxykit_acct_accept_once_rejections_total") }); n != 1 {
		t.Errorf("accept_once_rejections delta = %v, want 1", n)
	}
	if n := delta(func(s snapshot) float64 { return s.histCount("proxykit_acct_clearing_hops", "") }); n != 1 {
		t.Errorf("clearing_hops count delta = %v, want 1", n)
	}
	if n := delta(func(s snapshot) float64 { return s.counter("proxykit_acct_balance_reads_total") }); n < 1 {
		t.Errorf("balance_reads delta = %v, want >= 1", n)
	}
}

var metricNameRE = regexp.MustCompile(`proxykit_[a-z0-9_]+`)

// TestObservabilityDocCatalogue diffs the registered metric names
// against OBSERVABILITY.md in both directions: every registered metric
// must be documented, and every metric the doc names must exist (series
// suffixes like _bucket/_sum/_count in example output are allowed).
func TestObservabilityDocCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../../OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	docNames := make(map[string]bool)
	for _, m := range metricNameRE.FindAllString(string(raw), -1) {
		docNames[m] = true
	}
	registered := make(map[string]bool)
	for _, name := range obs.Default.Names() {
		registered[name] = true
	}
	if len(registered) == 0 {
		t.Fatal("no metrics registered")
	}

	for name := range registered {
		if !docNames[name] {
			t.Errorf("metric %s is registered but missing from OBSERVABILITY.md", name)
		}
	}
	for name := range docNames {
		if registered[name] {
			continue
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base = strings.TrimSuffix(base, suffix)
		}
		if !registered[base] {
			t.Errorf("OBSERVABILITY.md names %s, which is not a registered metric", name)
		}
	}
}

var (
	// docMakeRE matches a backticked `make <target>` in prose, allowing
	// a line break between "make" and the target.
	docMakeRE = regexp.MustCompile("`make\\s+([a-z][a-z0-9-]*)")
	// ciMakeRE matches a workflow step's `run: make <target>`.
	ciMakeRE = regexp.MustCompile(`run:\s*make\s+([a-z][a-z0-9-]*)`)
	// makeTargetRE matches a rule's target at the start of a Makefile line.
	makeTargetRE = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
	// docProxyctlRE matches a backticked `proxyctl <command>` in prose.
	docProxyctlRE = regexp.MustCompile("`proxyctl\\s+([a-z][a-z0-9-]*)")
	// proxyctlCaseRE matches a command label in proxyctl's dispatch switch.
	proxyctlCaseRE = regexp.MustCompile(`(?m)^\s*case "([a-z][a-z0-9-]*)":`)
)

// TestDocMakeTargets checks that every command the documentation and CI
// tell a reader to run exists: each `make <target>` is a Makefile rule
// and each `proxyctl <command>` is a case of proxyctl's dispatch switch.
// CHANGES.md and ROADMAP.md are history and may name retired commands.
func TestDocMakeTargets(t *testing.T) {
	docs := []string{
		"README.md", "DESIGN.md", "TESTING.md", "OBSERVABILITY.md",
		"GATEWAY.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md",
	}
	for _, tc := range []struct {
		tool, defFile string
		defRE, docRE  *regexp.Regexp
		extra         map[string]*regexp.Regexp // non-doc sources
	}{
		{"make", "Makefile", makeTargetRE, docMakeRE,
			map[string]*regexp.Regexp{".github/workflows/ci.yml": ciMakeRE}},
		{"proxyctl", "cmd/proxyctl/main.go", proxyctlCaseRE, docProxyctlRE, nil},
	} {
		t.Run(tc.tool, func(t *testing.T) {
			raw, err := os.ReadFile("../../" + tc.defFile)
			if err != nil {
				t.Fatal(err)
			}
			defined := make(map[string]bool)
			for _, m := range tc.defRE.FindAllStringSubmatch(string(raw), -1) {
				defined[m[1]] = true
			}
			sources := map[string]*regexp.Regexp{}
			for _, name := range docs {
				sources[name] = tc.docRE
			}
			for name, re := range tc.extra {
				sources[name] = re
			}
			refs := 0
			for name, re := range sources {
				raw, err := os.ReadFile("../../" + name)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range re.FindAllStringSubmatch(string(raw), -1) {
					refs++
					if !defined[m[1]] {
						t.Errorf("%s names `%s %s`, which %s does not define", name, tc.tool, m[1], tc.defFile)
					}
				}
			}
			if refs == 0 {
				t.Fatalf("no `%s <command>` references found; the patterns are stale", tc.tool)
			}
		})
	}
}

// auditKindRE matches backticked audit kinds like `acct.deposit` in
// the documentation's kinds table.
var auditKindRE = regexp.MustCompile("`((?:end|authz|group|acct|gateway)\\.[a-z-]+)`")

// TestAuditKindDocCatalogue diffs audit.Kinds() against the "Audit
// journal" section of OBSERVABILITY.md in both directions: every kind
// the journal can emit must be documented, and every kind the doc
// names must exist.
func TestAuditKindDocCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../../OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "## Audit journal")
	if !ok {
		t.Fatal("OBSERVABILITY.md has no \"## Audit journal\" section")
	}
	if i := strings.Index(section, "\n## "); i >= 0 {
		section = section[:i]
	}
	docKinds := make(map[string]bool)
	for _, m := range auditKindRE.FindAllStringSubmatch(section, -1) {
		docKinds[m[1]] = true
	}
	known := make(map[string]bool)
	for _, k := range audit.Kinds() {
		known[k] = true
	}
	if len(known) == 0 {
		t.Fatal("audit.Kinds() is empty")
	}
	for k := range known {
		if !docKinds[k] {
			t.Errorf("audit kind %s is not documented in OBSERVABILITY.md", k)
		}
	}
	for k := range docKinds {
		if !known[k] {
			t.Errorf("OBSERVABILITY.md names audit kind %s, which does not exist", k)
		}
	}
}
