package gateway

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"proxykit/internal/accounting"
	"proxykit/internal/obs"
	"proxykit/internal/principal"
	"proxykit/internal/proxy"
	"proxykit/internal/svc"
	"proxykit/internal/transport"
	"proxykit/internal/wire"
)

// Route describes one HTTP API route. Routes() is the table Handler
// serves and the catalogue TestGatewayDocCatalogue checks GATEWAY.md
// against.
type Route struct {
	// Method is the HTTP verb.
	Method string
	// Path is the route pattern.
	Path string
	// Summary is a one-line description.
	Summary string

	handle func(*Gateway, http.ResponseWriter, *http.Request, *session, obs.Trace)
}

// Routes enumerates the gateway's HTTP API.
func Routes() []Route {
	return []Route{
		{"POST", "/v1/authorize", "Perform an authorized operation against the end-server via a cached restricted proxy.", (*Gateway).handleAuthorize},
		{"POST", "/v1/transfer", "Transfer funds between accounts at the bank as the mapped principal.", (*Gateway).handleTransfer},
		{"GET", "/v1/balance", "Read an account balance at the bank.", (*Gateway).handleBalance},
		{"POST", "/v1/check/write", "Write a payee-named check drawn on the caller's account.", (*Gateway).handleCheckWrite},
		{"POST", "/v1/check/deposit", "Endorse and deposit a previously written check.", (*Gateway).handleCheckDeposit},
		{"GET", "/v1/session", "Describe the caller's own session.", (*Gateway).handleSession},
		{"GET", "/v1/sessions", "List all sessions and the redacted token map (admin only).", (*Gateway).handleSessions},
		{"GET", "/v1/proxies", "List cached proxies and their renewal state (admin only).", (*Gateway).handleProxies},
	}
}

// apiError is the JSON error body every failed request returns.
type apiError struct {
	Error   string `json:"error"`
	TraceID string `json:"traceId"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, tr obs.Trace, err error) {
	if code == http.StatusUnauthorized {
		w.Header().Set("WWW-Authenticate", "Bearer")
	}
	writeJSON(w, code, apiError{Error: err.Error(), TraceID: tr.TraceID})
}

// statusForUpstream maps a downstream failure onto an HTTP status:
// application-level refusals (RemoteError) become 4xx — denials 403,
// missing accounts 404, duplicates 409, exhausted funds 402 — while
// transport-level failures (timeouts, injected faults, dead daemons)
// become 502 so callers and probes can tell policy from plumbing.
func statusForUpstream(err error) int {
	if errors.Is(err, ErrExpiredProxy) {
		// The credential pipeline produced an already-dead proxy (clock
		// skew or a grant slower than its own lifetime): refuse to serve
		// rather than forward it, and tell the caller to retry.
		return http.StatusServiceUnavailable
	}
	var rerr *transport.RemoteError
	if errors.As(err, &rerr) {
		msg := rerr.Msg
		switch {
		case strings.Contains(msg, "denied"),
			strings.Contains(msg, "not authorized"),
			strings.Contains(msg, "not a member"),
			strings.Contains(msg, "unknown group"),
			strings.Contains(msg, "no rules"):
			return http.StatusForbidden
		case strings.Contains(msg, "no such account"):
			return http.StatusNotFound
		case strings.Contains(msg, "insufficient"):
			return http.StatusPaymentRequired
		case strings.Contains(msg, "duplicate check"),
			strings.Contains(msg, "already exists"):
			return http.StatusConflict
		default:
			return http.StatusBadRequest
		}
	}
	return http.StatusBadGateway
}

// Handler returns the gateway's HTTP API handler, serving Routes().
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range Routes() {
		mux.HandleFunc(rt.Path, g.route(rt))
	}
	return mux
}

// statusWriter captures the response code for metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// route wraps a route's handler with the per-request scaffolding:
// method check, a fresh root trace (returned in X-Trace-Id), bearer
// authentication, metrics, and a server span — so one trace ID joins
// the HTTP request to every downstream RPC span and audit record.
func (g *Gateway) route(rt Route) http.HandlerFunc {
	label := rt.Method + " " + rt.Path
	return func(w http.ResponseWriter, r *http.Request) {
		tr := obs.NewTrace()
		w.Header().Set("X-Trace-Id", tr.TraceID)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		func() {
			if r.Method != rt.Method {
				// RFC 9110 §15.5.6: a 405 names the allowed methods.
				sw.Header().Set("Allow", rt.Method)
				writeErr(sw, http.StatusMethodNotAllowed, tr, fmt.Errorf("use %s", rt.Method))
				return
			}
			s, code, err := g.authenticate(r, tr)
			if err != nil {
				writeErr(sw, code, tr, err)
				return
			}
			rt.handle(g, sw, r, s, tr)
		}()
		dur := time.Since(start)
		mHTTPRequests.With(label, strconv.Itoa(sw.code)).Inc()
		mHTTPLatency.With(label).Observe(dur.Seconds())
		span := obs.Span{Trace: tr, Kind: "server", Method: label, Start: start, Duration: dur}
		if sw.code >= 400 {
			span.Err = http.StatusText(sw.code)
		}
		obs.Spans.Record(span)
		obs.DefaultSLO.Observe(label, dur, tr.TraceID)
	}
}

// decode reads a JSON request body into v. On failure it answers 413
// for a body over the 1 MiB cap and 400 for any other decode error, and
// returns false.
func decode(w http.ResponseWriter, r *http.Request, tr obs.Trace, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	writeErr(w, code, tr, err)
	return false
}

// handleAuthorize performs one end-server operation as the mapped
// principal: acquire (or hit the cache for) a delegate authz proxy —
// cascaded through a group proxy when the session asserts groups —
// and present it with a sealed end-server request.
func (g *Gateway) handleAuthorize(w http.ResponseWriter, r *http.Request, s *session, tr obs.Trace) {
	var req struct {
		Object  string           `json:"object"`
		Op      string           `json:"op"`
		Amounts map[string]int64 `json:"amounts,omitempty"`
	}
	if !decode(w, r, tr, &req) {
		return
	}
	if req.Object == "" || req.Op == "" {
		writeErr(w, http.StatusBadRequest, tr, fmt.Errorf("object and op are required"))
		return
	}
	p, err := g.authzProxy(s, tr, req.Object, req.Op)
	if err != nil {
		g.auditRequest(tr, s, req.Object, req.Op, err)
		writeErr(w, statusForUpstream(err), tr, err)
		return
	}
	ec := svc.NewEndClient(transport.WithTrace(g.opts.EndClient, tr), s.ident, g.clk)
	dec, err := ec.Request(svc.RequestParams{
		Object:  req.Object,
		Op:      req.Op,
		Proxies: []*proxy.Presentation{p.PresentDelegate()},
		Amounts: req.Amounts,
	})
	g.auditRequest(tr, s, req.Object, req.Op, err)
	if err != nil {
		mUpstreamErrors.With("end").Inc()
		writeErr(w, statusForUpstream(err), tr, err)
		return
	}
	trail := make([]string, len(dec.Trail))
	for i, t := range dec.Trail {
		trail[i] = t.String()
	}
	writeJSON(w, http.StatusOK, struct {
		Allowed  bool     `json:"allowed"`
		Via      string   `json:"via"`
		ViaProxy bool     `json:"viaProxy"`
		Trail    []string `json:"trail,omitempty"`
		TraceID  string   `json:"traceId"`
	}{true, dec.Via.String(), dec.ViaProxy, trail, tr.TraceID})
}

// handleTransfer moves funds between accounts as the mapped principal.
func (g *Gateway) handleTransfer(w http.ResponseWriter, r *http.Request, s *session, tr obs.Trace) {
	var req struct {
		From     string `json:"from"`
		To       string `json:"to"`
		Currency string `json:"currency"`
		Amount   int64  `json:"amount"`
	}
	if !decode(w, r, tr, &req) {
		return
	}
	if req.From == "" || req.To == "" || req.Currency == "" || req.Amount <= 0 {
		writeErr(w, http.StatusBadRequest, tr, fmt.Errorf("from, to, currency, and a positive amount are required"))
		return
	}
	ac := svc.NewAcctClient(transport.WithTrace(g.opts.AcctClient, tr), s.ident, g.clk)
	err := ac.Transfer(req.From, req.To, req.Currency, req.Amount)
	g.auditRequest(tr, s, req.From+"->"+req.To, "transfer", err)
	if err != nil {
		mUpstreamErrors.With("acct").Inc()
		writeErr(w, statusForUpstream(err), tr, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		OK      bool   `json:"ok"`
		TraceID string `json:"traceId"`
	}{true, tr.TraceID})
}

// handleBalance reads an account balance.
func (g *Gateway) handleBalance(w http.ResponseWriter, r *http.Request, s *session, tr obs.Trace) {
	account := r.URL.Query().Get("account")
	currency := r.URL.Query().Get("currency")
	if account == "" || currency == "" {
		writeErr(w, http.StatusBadRequest, tr, fmt.Errorf("account and currency query parameters are required"))
		return
	}
	ac := svc.NewAcctClient(transport.WithTrace(g.opts.AcctClient, tr), s.ident, g.clk)
	bal, err := ac.Balance(account, currency)
	g.auditRequest(tr, s, account, "balance", err)
	if err != nil {
		mUpstreamErrors.With("acct").Inc()
		writeErr(w, statusForUpstream(err), tr, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Account  string `json:"account"`
		Currency string `json:"currency"`
		Balance  int64  `json:"balance"`
		TraceID  string `json:"traceId"`
	}{account, currency, bal, tr.TraceID})
}

// handleCheckWrite writes a payee-named check drawn on the caller's
// account (a numbered delegate proxy, §4 Fig. 5) and returns its
// public form. Bearer checks are refused: a check that anyone could
// cash must not transit an HTTP API.
func (g *Gateway) handleCheckWrite(w http.ResponseWriter, r *http.Request, s *session, tr obs.Trace) {
	var req struct {
		Account         string `json:"account"`
		Payee           string `json:"payee"`
		Currency        string `json:"currency"`
		Amount          int64  `json:"amount"`
		LifetimeSeconds int64  `json:"lifetimeSeconds,omitempty"`
	}
	if !decode(w, r, tr, &req) {
		return
	}
	if req.Account == "" || req.Currency == "" || req.Amount <= 0 {
		writeErr(w, http.StatusBadRequest, tr, fmt.Errorf("account, currency, and a positive amount are required"))
		return
	}
	if req.Payee == "" {
		writeErr(w, http.StatusBadRequest, tr, fmt.Errorf("payee is required (bearer checks are not issued over HTTP)"))
		return
	}
	payee, err := principal.Parse(req.Payee)
	if err != nil {
		writeErr(w, http.StatusBadRequest, tr, err)
		return
	}
	lifetime := time.Hour
	if req.LifetimeSeconds > 0 {
		lifetime = time.Duration(req.LifetimeSeconds) * time.Second
	}
	check, err := accounting.WriteCheck(accounting.WriteCheckParams{
		Payor:    s.ident,
		Bank:     g.opts.BankID,
		Account:  req.Account,
		Payee:    payee,
		Currency: req.Currency,
		Amount:   req.Amount,
		Lifetime: lifetime,
		Clock:    g.clk,
		Journal:  g.opts.Journal,
	})
	g.auditRequest(tr, s, req.Account, "check-write", err)
	if err != nil {
		writeErr(w, http.StatusBadRequest, tr, err)
		return
	}
	e := wire.NewEncoder(1024)
	svc.EncodeCheck(e, check)
	writeJSON(w, http.StatusOK, struct {
		Check   string `json:"check"`
		Number  string `json:"number"`
		TraceID string `json:"traceId"`
	}{base64.StdEncoding.EncodeToString(e.Bytes()), check.Number, tr.TraceID})
}

// handleCheckDeposit endorses a received check for deposit — restricted
// to the gateway's bank and the named credit account — and deposits it
// as the mapped principal.
func (g *Gateway) handleCheckDeposit(w http.ResponseWriter, r *http.Request, s *session, tr obs.Trace) {
	var req struct {
		Check   string `json:"check"`
		Account string `json:"account"`
	}
	if !decode(w, r, tr, &req) {
		return
	}
	if req.Check == "" || req.Account == "" {
		writeErr(w, http.StatusBadRequest, tr, fmt.Errorf("check and account are required"))
		return
	}
	raw, err := base64.StdEncoding.DecodeString(req.Check)
	if err != nil {
		writeErr(w, http.StatusBadRequest, tr, fmt.Errorf("check is not base64: %v", err))
		return
	}
	check, err := svc.DecodeCheck(wire.NewDecoder(raw))
	if err != nil {
		writeErr(w, http.StatusBadRequest, tr, err)
		return
	}
	endorsed, err := check.Endorse(s.ident, g.opts.BankID, g.opts.BankID,
		principal.Global{Server: g.opts.BankID, Name: req.Account}, true, g.clk)
	if err != nil {
		g.auditRequest(tr, s, req.Account, "check-deposit", err)
		writeErr(w, http.StatusBadRequest, tr, err)
		return
	}
	ac := svc.NewAcctClient(transport.WithTrace(g.opts.AcctClient, tr), s.ident, g.clk)
	receipt, err := ac.DepositCheck(endorsed, req.Account)
	g.auditRequest(tr, s, req.Account, "check-deposit", err)
	if err != nil {
		mUpstreamErrors.With("acct").Inc()
		writeErr(w, statusForUpstream(err), tr, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Number    string `json:"number"`
		Currency  string `json:"currency"`
		Amount    int64  `json:"amount"`
		Collected bool   `json:"collected"`
		Hops      int    `json:"hops"`
		TraceID   string `json:"traceId"`
	}{receipt.Number, receipt.Currency, receipt.Amount, receipt.Collected, receipt.Hops, tr.TraceID})
}

// handleSession describes the caller's own session.
func (g *Gateway) handleSession(w http.ResponseWriter, r *http.Request, s *session, tr obs.Trace) {
	g.mu.Lock()
	info := SessionInfo{
		Subject:      s.Subject,
		Principal:    s.Principal.String(),
		Groups:       s.Groups,
		Impersonated: s.Impersonated,
		Admin:        s.Admin,
		TokenRef:     s.TokenRef,
		Created:      s.Created,
		Requests:     s.requests,
	}
	g.mu.Unlock()
	writeJSON(w, http.StatusOK, info)
}

// handleSessions lists every session and the redacted token map.
func (g *Gateway) handleSessions(w http.ResponseWriter, r *http.Request, s *session, tr obs.Trace) {
	if !s.Admin {
		writeErr(w, http.StatusForbidden, tr, fmt.Errorf("admin token required"))
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Sessions []SessionInfo  `json:"sessions"`
		TokenMap []TokenMapInfo `json:"tokenMap"`
	}{g.Sessions(), g.TokenMap()})
}

// handleProxies lists the proxy cache.
func (g *Gateway) handleProxies(w http.ResponseWriter, r *http.Request, s *session, tr obs.Trace) {
	if !s.Admin {
		writeErr(w, http.StatusForbidden, tr, fmt.Errorf("admin token required"))
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Proxies []EntryInfo `json:"proxies"`
	}{g.cache.Entries()})
}
