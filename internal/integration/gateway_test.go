package integration

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"proxykit/internal/accounting"
	"proxykit/internal/acl"
	"proxykit/internal/audit"
	"proxykit/internal/authz"
	"proxykit/internal/endserver"
	"proxykit/internal/gateway"
	"proxykit/internal/group"
	"proxykit/internal/obs"
	"proxykit/internal/principal"
	"proxykit/internal/proxy"
	"proxykit/internal/pubkey"
	"proxykit/internal/statefile"
	"proxykit/internal/svc"
	"proxykit/internal/transport"
)

// Bearer tokens the gateway deployment recognizes.
const (
	ciToken    = "test-ci-token-8d1c"    // maps straight to ci@realm, staff, admin
	frontToken = "test-front-token-4a77" // impersonation-only front-end token
	plainToken = "test-plain-token-90ef" // maps to plain@realm: no groups, no admin
)

// gatewayDeployment is the backend TCP deployment plus a gatewayd core
// serving its HTTP API from an httptest server — the full edge path:
// HTTP client → gateway → group/authz/end/bank daemons.
type gatewayDeployment struct {
	t     *testing.T
	state string

	bank *accounting.Server

	fileJournal *audit.Journal
	bankJournal *audit.Journal
	gwJournal   *audit.Journal

	gw  *gateway.Gateway
	web *httptest.Server
}

// newGatewayDeployment wires the services the way the cmd/ daemons do,
// but resolves identities with statefile.DynamicResolver: the gateway
// materializes principals lazily (first request of a session), so the
// daemons must re-read the shared directory to verify their envelopes.
func newGatewayDeployment(t *testing.T) *gatewayDeployment {
	t.Helper()
	d := &gatewayDeployment{t: t, state: t.TempDir()}

	ids := make(map[string]*pubkey.Identity)
	for _, name := range []string{"groups", "authz", "file/srv1", "bank"} {
		ident, err := statefile.CreateIdentity(d.state, principal.New(name, realm))
		if err != nil {
			t.Fatal(err)
		}
		ids[name] = ident
	}
	resolve := statefile.DynamicResolver(d.state)

	addrs := map[string]string{}
	serve := func(name string, mux *transport.Mux) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := transport.NewTCPServer(l, mux)
		t.Cleanup(func() { _ = srv.Close() })
		addrs[name] = srv.Addr().String()
	}
	dial := func(name string) *transport.TCPClient {
		c, err := transport.DialTCP(addrs[name], 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return c
	}

	groupSrv := group.New(ids["groups"], nil)
	groupSrv.AddMember("staff", principal.New("ci", realm))
	groupSrv.AddMember("staff", principal.New("alice", realm))
	serve("groups", svc.NewGroupService(groupSrv, resolve, nil).Mux())

	authzSrv := authz.New(ids["authz"], nil)
	authzSrv.AddRule(authz.Rule{
		EndServer: ids["file/srv1"].ID,
		Object:    "/shared/doc",
		Subject:   acl.Subject{Groups: []principal.Global{groupSrv.Global("staff")}},
		Ops:       []string{"read"},
	})
	serve("authz", svc.NewAuthzService(authzSrv, resolve, nil).Mux())

	d.fileJournal = mustJournal(t)
	fileSrv := endserver.New(ids["file/srv1"].ID, &proxy.VerifyEnv{ResolveIdentity: resolve}, nil)
	fileSrv.SetJournal(d.fileJournal)
	fileSrv.SetACL("/shared/doc", acl.New(acl.PrincipalEntry(ids["authz"].ID, "read")))
	serve("file", svc.NewEndService(fileSrv, resolve, nil).Mux())

	d.bankJournal = mustJournal(t)
	d.bank = accounting.NewServer(ids["bank"], resolve, nil)
	d.bank.SetJournal(d.bankJournal)
	serve("bank", svc.NewAcctService(d.bank, resolve, nil).Mux())

	for acct, owner := range map[string]string{"ci": "ci", "ops": "ops", "alice": "alice"} {
		if err := d.bank.CreateAccount(acct, principal.New(owner, realm)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.bank.Mint("ci", "dollars", 500); err != nil {
		t.Fatal(err)
	}

	mapping := &gateway.MappingConfig{
		Tokens: []gateway.TokenEntry{
			{Token: ciToken, Subject: "ci", Principal: "ci@" + realm, Groups: []string{"staff"}, Admin: true},
			{Token: frontToken, Subject: "frontend", Impersonate: true},
			{Token: plainToken, Subject: "plain", Principal: "plain@" + realm},
		},
		Impersonation: []gateway.ImpersonationRule{
			{SubjectSuffix: "@corp.example.com", Realm: realm, Groups: []string{"staff"}},
		},
	}
	d.gwJournal = mustJournal(t)
	gw, err := gateway.New(gateway.Options{
		StateDir:    d.state,
		ID:          principal.New("gateway", realm),
		Mapping:     mapping,
		AuthzClient: dial("authz"),
		GroupClient: dial("groups"),
		AcctClient:  dial("bank"),
		EndClient:   dial("file"),
		EndServerID: ids["file/srv1"].ID,
		BankID:      ids["bank"].ID,
		Journal:     d.gwJournal,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.gw = gw
	d.web = httptest.NewServer(gw.Handler())
	t.Cleanup(d.web.Close)
	return d
}

// call drives one HTTP API request and returns the status, the decoded
// body, and the X-Trace-Id response header.
func (d *gatewayDeployment) call(method, path, token, impersonate string, reqBody any) (int, map[string]any, string) {
	d.t.Helper()
	var body io.Reader
	if reqBody != nil {
		raw, err := json.Marshal(reqBody)
		if err != nil {
			d.t.Fatal(err)
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, d.web.URL+path, body)
	if err != nil {
		d.t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if impersonate != "" {
		req.Header.Set("X-Impersonate-Subject", impersonate)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		d.t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		d.t.Fatalf("%s %s: decode body: %v", method, path, err)
	}
	return resp.StatusCode, doc, resp.Header.Get("X-Trace-Id")
}

func mustJournal(t *testing.T) *audit.Journal {
	t.Helper()
	j, err := audit.New(audit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// journalHasTrace reports whether any record in j carries traceID,
// optionally restricted to one kind.
func journalHasTrace(j *audit.Journal, kind, traceID string) bool {
	for _, r := range j.Tail(0) {
		if r.TraceID == traceID && (kind == "" || r.Kind == kind) {
			return true
		}
	}
	return false
}

// TestGatewayEndToEnd is the edge-path integration test: an HTTP client
// authorizes against the end-server and transfers funds at the bank
// through the gateway, and one trace ID joins the HTTP request to the
// downstream RPC spans and to the audit journals of the gateway AND the
// daemon that served the operation. It also checks that the TCP server
// and the gateway router feed the process-wide SLO engine.
func TestGatewayEndToEnd(t *testing.T) {
	var objectives []obs.Objective
	for _, method := range []string{"end.request", "acct.transfer", "POST /v1/authorize"} {
		objectives = append(objectives, obs.Objective{Method: method, Target: time.Minute, Quantile: 0.99})
	}
	obs.DefaultSLO.Configure(objectives)
	t.Cleanup(func() { obs.DefaultSLO.Configure(nil) })
	d := newGatewayDeployment(t)
	before := takeSnapshot(t)

	// Authorize: ci's staff membership flows token → group proxy →
	// cascaded authz proxy → end-server decision.
	code, doc, traceID := d.call("POST", "/v1/authorize", ciToken, "",
		map[string]any{"object": "/shared/doc", "op": "read"})
	if code != http.StatusOK {
		t.Fatalf("authorize = %d: %v", code, doc)
	}
	if doc["allowed"] != true || doc["via"] != "authz@"+realm || doc["viaProxy"] != true {
		t.Fatalf("authorize decision = %v", doc)
	}
	if traceID == "" || doc["traceId"] != traceID {
		t.Fatalf("trace ID mismatch: header %q body %v", traceID, doc["traceId"])
	}

	// The same trace ID must appear in the gateway's own journal and in
	// the end-server's journal — the §5 accountability trail crosses the
	// HTTP boundary intact.
	if !journalHasTrace(d.gwJournal, "gateway.request", traceID) {
		t.Errorf("gateway journal has no gateway.request record for trace %s", traceID)
	}
	if !journalHasTrace(d.fileJournal, "end.authorize", traceID) {
		t.Errorf("end-server journal has no end.authorize record for trace %s", traceID)
	}

	// And the span log holds both sides: the gateway's HTTP server span
	// and downstream RPC spans under the same trace.
	var httpSpan, rpcSpan bool
	for _, s := range obs.Spans.Recent() {
		if s.TraceID != traceID {
			continue
		}
		if s.Kind == "server" && s.Method == "POST /v1/authorize" {
			httpSpan = true
		}
		if strings.Contains(s.Method, ".") { // an RPC method like end.request
			rpcSpan = true
		}
	}
	if !httpSpan || !rpcSpan {
		t.Errorf("trace %s: httpSpan=%v rpcSpan=%v; want both", traceID, httpSpan, rpcSpan)
	}

	// A second identical call is served from the proxy cache.
	if code, doc, _ := d.call("POST", "/v1/authorize", ciToken, "",
		map[string]any{"object": "/shared/doc", "op": "read"}); code != http.StatusOK {
		t.Fatalf("second authorize = %d: %v", code, doc)
	}
	after := takeSnapshot(t)
	if n := after.counter("proxykit_gateway_proxy_cache_hits_total") - before.counter("proxykit_gateway_proxy_cache_hits_total"); n < 1 {
		t.Errorf("proxy cache hits delta = %v, want >= 1", n)
	}
	if n := after.counter("proxykit_gateway_proxy_cache_misses_total") - before.counter("proxykit_gateway_proxy_cache_misses_total"); n < 1 {
		t.Errorf("proxy cache misses delta = %v, want >= 1", n)
	}

	// An unauthorized op comes back as a clean 403, audited as denied.
	code, doc, denyTrace := d.call("POST", "/v1/authorize", ciToken, "",
		map[string]any{"object": "/shared/doc", "op": "write"})
	if code != http.StatusForbidden {
		t.Fatalf("write authorize = %d: %v", code, doc)
	}
	if !journalHasTrace(d.gwJournal, "gateway.request", denyTrace) {
		t.Errorf("denied request not audited under trace %s", denyTrace)
	}

	// Transfer: the same edge path into the bank.
	code, doc, xferTrace := d.call("POST", "/v1/transfer", ciToken, "",
		map[string]any{"from": "ci", "to": "ops", "currency": "dollars", "amount": 120})
	if code != http.StatusOK {
		t.Fatalf("transfer = %d: %v", code, doc)
	}
	if !journalHasTrace(d.bankJournal, "acct.transfer", xferTrace) {
		t.Errorf("bank journal has no acct.transfer record for trace %s", xferTrace)
	}
	if !journalHasTrace(d.gwJournal, "gateway.request", xferTrace) {
		t.Errorf("gateway journal has no gateway.request record for trace %s", xferTrace)
	}
	code, doc, _ = d.call("GET", "/v1/balance?account=ci&currency=dollars", ciToken, "", nil)
	if code != http.StatusOK || doc["balance"] != float64(380) {
		t.Fatalf("balance = %d %v, want 380", code, doc)
	}

	// Every armed objective was observed: end.request and acct.transfer
	// by the TCP servers, POST /v1/authorize by the gateway router.
	report := obs.DefaultSLO.Report()
	if len(report) != len(objectives) {
		t.Fatalf("SLO report has %d objectives, want %d: %+v", len(report), len(objectives), report)
	}
	for _, o := range report {
		if o.Total < 1 {
			t.Errorf("SLO objective %q saw no observations", o.Method)
		}
	}
}

// TestGatewayImpersonation maps an external identity through the
// front-end token: the declarative rule turns alice@corp.example.com
// into alice@<realm> with the staff group, the mapping decision is
// audited, and the cascaded authorize works under her principal.
func TestGatewayImpersonation(t *testing.T) {
	d := newGatewayDeployment(t)

	// Session introspection shows the mapped identity.
	code, doc, _ := d.call("GET", "/v1/session", frontToken, "alice@corp.example.com", nil)
	if code != http.StatusOK {
		t.Fatalf("session = %d: %v", code, doc)
	}
	if doc["principal"] != "alice@"+realm || doc["impersonated"] != true {
		t.Fatalf("session = %v", doc)
	}

	// The full authorize path as the impersonated principal.
	code, doc, traceID := d.call("POST", "/v1/authorize", frontToken, "alice@corp.example.com",
		map[string]any{"object": "/shared/doc", "op": "read"})
	if code != http.StatusOK || doc["allowed"] != true {
		t.Fatalf("impersonated authorize = %d: %v", code, doc)
	}
	if !journalHasTrace(d.fileJournal, "end.authorize", traceID) {
		t.Errorf("end-server journal missing trace %s for impersonated request", traceID)
	}

	// The mapping decision itself is on the gateway's journal.
	var mapped bool
	for _, r := range d.gwJournal.Tail(0) {
		if r.Kind == "gateway.map" && r.Object == "alice@corp.example.com" &&
			r.Outcome == audit.OutcomeGranted &&
			r.Detail["tokenSubject"] == "frontend" {
			mapped = true
		}
	}
	if !mapped {
		t.Error("no granted gateway.map record for alice@corp.example.com")
	}

	// A subject no rule covers is refused and audited as denied.
	code, doc, _ = d.call("GET", "/v1/session", frontToken, "eve@elsewhere.example.net", nil)
	if code != http.StatusForbidden {
		t.Fatalf("unmapped subject = %d: %v", code, doc)
	}
	var denied bool
	for _, r := range d.gwJournal.Tail(0) {
		if r.Kind == "gateway.map" && r.Outcome == audit.OutcomeDenied {
			denied = true
		}
	}
	if !denied {
		t.Error("refused mapping left no denied gateway.map record")
	}

	// A token without the impersonate bit cannot use the header.
	if code, _, _ := d.call("GET", "/v1/session", plainToken, "alice@corp.example.com", nil); code != http.StatusForbidden {
		t.Fatalf("non-impersonation token with header = %d, want 403", code)
	}
	// And an impersonation-only token needs the header.
	if code, _, _ := d.call("GET", "/v1/session", frontToken, "", nil); code != http.StatusForbidden {
		t.Fatalf("impersonation token without header = %d, want 403", code)
	}
}

// TestGatewayErrorMapping pins the HTTP status the gateway reports for
// the interesting downstream refusals: policy (403), missing accounts
// (404), exhausted funds (402), and bad credentials (401).
func TestGatewayErrorMapping(t *testing.T) {
	d := newGatewayDeployment(t)

	if code, _, _ := d.call("GET", "/v1/session", "no-such-token", "", nil); code != http.StatusUnauthorized {
		t.Errorf("unknown token = %d, want 401", code)
	}
	// plain@realm is not staff: the group server refuses the cascade.
	if code, doc, _ := d.call("POST", "/v1/authorize", plainToken, "",
		map[string]any{"object": "/shared/doc", "op": "read"}); code != http.StatusForbidden {
		t.Errorf("non-member authorize = %d: %v, want 403", code, doc)
	}
	if code, doc, _ := d.call("GET", "/v1/balance?account=nope&currency=dollars", ciToken, "", nil); code != http.StatusNotFound {
		t.Errorf("unknown account = %d: %v, want 404", code, doc)
	}
	if code, doc, _ := d.call("POST", "/v1/transfer", ciToken, "",
		map[string]any{"from": "ci", "to": "ops", "currency": "dollars", "amount": 9999}); code != http.StatusPaymentRequired {
		t.Errorf("overdraft = %d: %v, want 402", code, doc)
	}
	// Reading an account the principal has no rights on is a denial.
	if code, doc, _ := d.call("GET", "/v1/balance?account=ops&currency=dollars", plainToken, "", nil); code != http.StatusForbidden {
		t.Errorf("foreign balance read = %d: %v, want 403", code, doc)
	}
	// Admin introspection is refused to non-admin tokens.
	if code, _, _ := d.call("GET", "/v1/sessions", plainToken, "", nil); code != http.StatusForbidden {
		t.Errorf("non-admin /v1/sessions, want 403")
	}
}

// TestGatewaySmoke is the `make gateway-smoke` entry point: it drives
// every route of the HTTP API against a live deployment — including the
// check write/deposit round trip between two sessions — then verifies
// the hash chains of all three audit journals.
func TestGatewaySmoke(t *testing.T) {
	d := newGatewayDeployment(t)

	// ci writes a check payable to alice.
	code, doc, _ := d.call("POST", "/v1/check/write", ciToken, "",
		map[string]any{"account": "ci", "payee": "alice@" + realm, "currency": "dollars", "amount": 75})
	if code != http.StatusOK {
		t.Fatalf("check/write = %d: %v", code, doc)
	}
	checkB64, _ := doc["check"].(string)
	if checkB64 == "" {
		t.Fatalf("check/write returned no check: %v", doc)
	}

	// Bearer checks must be refused outright.
	if code, doc, _ := d.call("POST", "/v1/check/write", ciToken, "",
		map[string]any{"account": "ci", "currency": "dollars", "amount": 10}); code != http.StatusBadRequest {
		t.Fatalf("bearer check/write = %d: %v, want 400", code, doc)
	}

	// alice — an impersonated session — endorses and deposits it.
	code, doc, _ = d.call("POST", "/v1/check/deposit", frontToken, "alice@corp.example.com",
		map[string]any{"check": checkB64, "account": "alice"})
	if code != http.StatusOK {
		t.Fatalf("check/deposit = %d: %v", code, doc)
	}
	if doc["amount"] != float64(75) || doc["collected"] != true {
		t.Fatalf("deposit receipt = %v", doc)
	}
	// Depositing the same check twice trips accept-once.
	if code, doc, _ := d.call("POST", "/v1/check/deposit", frontToken, "alice@corp.example.com",
		map[string]any{"check": checkB64, "account": "alice"}); code != http.StatusConflict {
		t.Fatalf("duplicate deposit = %d: %v, want 409", code, doc)
	}

	// Remaining read routes.
	if code, _, _ := d.call("POST", "/v1/authorize", ciToken, "",
		map[string]any{"object": "/shared/doc", "op": "read"}); code != http.StatusOK {
		t.Fatal("authorize failed")
	}
	if code, doc, _ := d.call("GET", "/v1/balance?account=alice&currency=dollars", frontToken, "alice@corp.example.com", nil); code != http.StatusOK || doc["balance"] != float64(75) {
		t.Fatalf("alice balance = %d %v", code, doc)
	}
	if code, _, _ := d.call("GET", "/v1/session", ciToken, "", nil); code != http.StatusOK {
		t.Fatal("session failed")
	}
	code, doc, _ = d.call("GET", "/v1/sessions", ciToken, "", nil)
	if code != http.StatusOK {
		t.Fatalf("sessions = %d: %v", code, doc)
	}
	if sess, _ := doc["sessions"].([]any); len(sess) < 2 {
		t.Fatalf("sessions = %v, want ci and alice", doc)
	}
	code, doc, _ = d.call("GET", "/v1/proxies", ciToken, "", nil)
	if code != http.StatusOK {
		t.Fatalf("proxies = %d: %v", code, doc)
	}
	if proxies, _ := doc["proxies"].([]any); len(proxies) == 0 {
		t.Fatal("proxy cache empty after authorize calls")
	}

	// Every journal the flow touched must verify end to end.
	for name, j := range map[string]*audit.Journal{
		"gateway": d.gwJournal, "end-server": d.fileJournal, "bank": d.bankJournal,
	} {
		recs := j.Tail(0)
		if len(recs) == 0 {
			t.Errorf("%s journal is empty", name)
			continue
		}
		if err := audit.VerifyChain(recs); err != nil {
			t.Errorf("%s journal chain broken: %v", name, err)
		}
	}
}

// gatewayRouteRE matches backticked routes like `POST /v1/authorize`.
var gatewayRouteRE = regexp.MustCompile("`(GET|POST) (/v1/[a-z/]+)`")

// gatewayFlagRE matches backticked flags like `-metrics-addr` in the
// Flags section's table.
var gatewayFlagRE = regexp.MustCompile("`-([a-z][a-z0-9-]*)`")

// TestGatewayDocCatalogue holds GATEWAY.md to the code in both
// directions, the way TestObservabilityDocCatalogue does for
// OBSERVABILITY.md: every route, daemon flag, gateway metric, and
// gateway audit kind must be documented, and everything the document
// names must exist.
func TestGatewayDocCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../../GATEWAY.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)

	// Routes ↔ the HTTP API reference.
	docRoutes := make(map[string]bool)
	for _, m := range gatewayRouteRE.FindAllStringSubmatch(doc, -1) {
		docRoutes[m[1]+" "+m[2]] = true
	}
	realRoutes := make(map[string]bool)
	for _, r := range gateway.Routes() {
		key := r.Method + " " + r.Path
		realRoutes[key] = true
		if !docRoutes[key] {
			t.Errorf("route %s is served but not documented in GATEWAY.md", key)
		}
	}
	for key := range docRoutes {
		if !realRoutes[key] {
			t.Errorf("GATEWAY.md documents %s, which is not a served route", key)
		}
	}

	// Flags ↔ the Flags section.
	_, flagSection, ok := strings.Cut(doc, "## Flags")
	if !ok {
		t.Fatal("GATEWAY.md has no \"## Flags\" section")
	}
	if i := strings.Index(flagSection, "\n## "); i >= 0 {
		flagSection = flagSection[:i]
	}
	docFlags := make(map[string]bool)
	for _, m := range gatewayFlagRE.FindAllStringSubmatch(flagSection, -1) {
		docFlags[m[1]] = true
	}
	var opts gateway.DaemonOptions
	fs := flag.NewFlagSet("gatewayd", flag.ContinueOnError)
	opts.RegisterFlags(fs)
	realFlags := make(map[string]bool)
	fs.VisitAll(func(f *flag.Flag) {
		realFlags[f.Name] = true
		if !docFlags[f.Name] {
			t.Errorf("flag -%s is registered but not documented in GATEWAY.md", f.Name)
		}
	})
	for name := range docFlags {
		if !realFlags[name] {
			t.Errorf("GATEWAY.md documents -%s, which gatewayd does not register", name)
		}
	}

	// Gateway metrics ↔ the Metrics section.
	docMetrics := make(map[string]bool)
	for _, m := range metricNameRE.FindAllString(doc, -1) {
		docMetrics[m] = true
	}
	registered := make(map[string]bool)
	for _, name := range obs.Default.Names() {
		if strings.HasPrefix(name, "proxykit_gateway_") {
			registered[name] = true
			if !docMetrics[name] {
				t.Errorf("metric %s is registered but not documented in GATEWAY.md", name)
			}
		}
	}
	if len(registered) == 0 {
		t.Fatal("no gateway metrics registered")
	}
	for name := range docMetrics {
		if !strings.HasPrefix(name, "proxykit_gateway_") {
			continue
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base = strings.TrimSuffix(base, suffix)
		}
		if !registered[base] {
			t.Errorf("GATEWAY.md names %s, which is not a registered metric", name)
		}
	}

	// Gateway audit kinds ↔ the audit section.
	docKinds := make(map[string]bool)
	for _, m := range auditKindRE.FindAllStringSubmatch(doc, -1) {
		if strings.HasPrefix(m[1], "gateway.") {
			docKinds[m[1]] = true
		}
	}
	for _, k := range audit.Kinds() {
		if !strings.HasPrefix(k, "gateway.") {
			continue
		}
		if !docKinds[k] {
			t.Errorf("audit kind %s is not documented in GATEWAY.md", k)
		}
		delete(docKinds, k)
	}
	for k := range docKinds {
		t.Errorf("GATEWAY.md names audit kind %s, which does not exist", k)
	}
}
