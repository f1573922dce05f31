package integration

import (
	"testing"
	"time"

	"proxykit/internal/obs"
	"proxykit/internal/principal"
	"proxykit/internal/proxy"
	"proxykit/internal/svc"
	"proxykit/internal/transport"
)

// Trace-continuity tests: one trace tree across two boundaries —
// gateway HTTP → mux RPC → backend daemon, and a cascaded multi-link
// authorize. They assert
// against the process-global span ring the way `proxyctl trace show`
// reads it: obs.Spans.Page filtered by trace ID.

// spansFor pages every retained span of one trace out of the global
// ring.
func spansFor(traceID string) []obs.Span {
	spans, _, _, _ := obs.Spans.Page(0, 0, traceID)
	return spans
}

// ancestorOf walks s's parent links through byID and reports whether it
// reaches root.
func ancestorOf(byID map[string]obs.Span, s obs.Span, root string) bool {
	for hops := 0; hops < 32; hops++ {
		if s.Parent == "" {
			return s.SpanID == root
		}
		if s.Parent == root {
			return true
		}
		next, ok := byID[s.Parent]
		if !ok {
			return false
		}
		s = next
	}
	return false
}

// TestTraceTreeGatewayToBackend crosses the HTTP boundary: one
// /v1/authorize call must yield a single trace whose root is the
// gateway's HTTP server span and whose descendants include the
// end-server's end.request server span, connected by parent links —
// the tree `proxyctl trace show` renders.
func TestTraceTreeGatewayToBackend(t *testing.T) {
	d := newGatewayDeployment(t)
	code, doc, traceID := d.call("POST", "/v1/authorize", ciToken, "",
		map[string]any{"object": "/shared/doc", "op": "read"})
	if code != 200 {
		t.Fatalf("authorize = %d: %v", code, doc)
	}
	if traceID == "" {
		t.Fatal("no X-Trace-Id header")
	}

	spans := spansFor(traceID)
	if len(spans) < 3 {
		t.Fatalf("trace %s has %d spans, want at least HTTP root + client + server", traceID, len(spans))
	}
	byID := make(map[string]obs.Span, len(spans))
	for _, s := range spans {
		byID[s.SpanID] = s
	}

	var root obs.Span
	for _, s := range spans {
		if s.Kind == "server" && s.Method == "POST /v1/authorize" {
			root = s
		}
	}
	if root.SpanID == "" {
		t.Fatalf("trace %s has no gateway HTTP server span: %+v", traceID, spans)
	}
	if root.Parent != "" {
		t.Errorf("gateway HTTP span has parent %q, want a root span", root.Parent)
	}

	// The end-server's server-side span must hang off the gateway root
	// through its client span — one connected tree, no orphans.
	var endSpan obs.Span
	for _, s := range spans {
		if s.Kind == "server" && s.Method == "end.request" {
			endSpan = s
		}
	}
	if endSpan.SpanID == "" {
		t.Fatalf("trace %s has no end.request server span: %+v", traceID, spans)
	}
	if !ancestorOf(byID, endSpan, root.SpanID) {
		t.Errorf("end.request span does not chain to the HTTP root: %+v", spans)
	}

	// Every span of the trace chains to the one root: durations beyond
	// that are per-hop and positive.
	for _, s := range spans {
		if s.SpanID == root.SpanID {
			continue
		}
		if !ancestorOf(byID, s, root.SpanID) {
			t.Errorf("span %s %s/%s is disconnected from the root", s.SpanID, s.Kind, s.Method)
		}
		if s.Duration <= 0 {
			t.Errorf("span %s %s/%s has non-positive duration %v", s.SpanID, s.Kind, s.Method, s.Duration)
		}
	}
}

// TestTraceCascadedAuthorize binds one root trace across the full
// multi-link cascade — group proxy, then an authorization proxy
// presenting it, then the end-server request presenting that — issued
// over three different daemons' connections. All three RPCs must join
// the same trace as children of the bound root.
func TestTraceCascadedAuthorize(t *testing.T) {
	d := newDeployment(t)
	fileID := principal.New("file/srv1", realm)
	root := obs.NewTrace()

	gc := svc.NewGroupClient(transport.WithTrace(d.dial("groups"), root), d.bob, nil)
	gp, err := gc.Grant(svc.GroupGrantParams{Groups: []string{"staff"}, Lifetime: time.Hour, Delegate: true})
	if err != nil {
		t.Fatal(err)
	}
	ac := svc.NewAuthzClient(transport.WithTrace(d.dial("authz"), root), d.bob, nil)
	ap, err := ac.Grant(svc.GrantParams{
		EndServer: fileID, Lifetime: time.Hour, Delegate: true,
		GroupProxies: []*proxy.Presentation{gp.PresentDelegate()},
	})
	if err != nil {
		t.Fatal(err)
	}
	ec := svc.NewEndClient(transport.WithTrace(d.dial("file"), root), d.bob, nil)
	if _, err := ec.Request(svc.RequestParams{
		Object: "/shared/doc", Op: "read",
		Proxies: []*proxy.Presentation{ap.PresentDelegate()},
	}); err != nil {
		t.Fatal(err)
	}

	spans := spansFor(root.TraceID)
	byID := make(map[string]obs.Span, len(spans))
	for _, s := range spans {
		byID[s.SpanID] = s
	}
	serverSeen := map[string]bool{}
	for _, s := range spans {
		if s.Kind == "server" {
			serverSeen[s.Method] = true
		}
		// Client spans issued through the bound root are its direct
		// children; server spans chain through them.
		if !ancestorOf(byID, s, root.SpanID) {
			t.Errorf("span %s %s/%s escaped the bound trace", s.SpanID, s.Kind, s.Method)
		}
	}
	for _, method := range []string{"group.grant", "authz.grant", "end.request"} {
		if !serverSeen[method] {
			t.Errorf("cascade link %s has no server span under trace %s (have %v)", method, root.TraceID, serverSeen)
		}
	}
}
