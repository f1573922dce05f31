package gateway

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"proxykit/internal/principal"
	"proxykit/internal/transport"
)

// TestRouteStatusCodes pins the statuses the HTTP scaffolding answers
// before any downstream call: every route in Routes() is served (an
// unauthenticated request gets 401, not 404), a wrong method gets 405
// with an Allow header (RFC 9110 §15.5.6), and a body over the 1 MiB
// cap gets 413.
func TestRouteStatusCodes(t *testing.T) {
	n := transport.NewNetwork()
	n.Register("none", transport.NewMux())
	upstream := n.MustDial("none")
	gw, err := New(Options{
		StateDir: t.TempDir(),
		ID:       principal.New("gateway", "X.ORG"),
		Mapping: &MappingConfig{Tokens: []TokenEntry{
			{Token: "tok", Subject: "ci", Principal: "ci@X.ORG"},
		}},
		AuthzClient: upstream,
		AcctClient:  upstream,
		EndClient:   upstream,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := gw.Handler()
	serve := func(method, path, token, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	for _, rt := range Routes() {
		if got := serve(rt.Method, rt.Path, "", "").Code; got != http.StatusUnauthorized {
			t.Errorf("%s %s without a token = %d, want 401", rt.Method, rt.Path, got)
		}
	}

	huge := `{"from":"` + strings.Repeat("a", 1<<20) + `"}`
	cases := []struct {
		name, method, path, token, body string
		want                            int
		allow                           string
	}{
		{"GET on a POST route", "GET", "/v1/authorize", "tok", "", http.StatusMethodNotAllowed, "POST"},
		{"POST on a GET route", "POST", "/v1/balance", "tok", "", http.StatusMethodNotAllowed, "GET"},
		{"body over the cap", "POST", "/v1/transfer", "tok", huge, http.StatusRequestEntityTooLarge, ""},
		{"malformed body", "POST", "/v1/transfer", "tok", "{", http.StatusBadRequest, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := serve(tc.method, tc.path, tc.token, tc.body)
			if rec.Code != tc.want {
				t.Fatalf("status = %d, want %d: %s", rec.Code, tc.want, rec.Body)
			}
			if got := rec.Header().Get("Allow"); got != tc.allow {
				t.Fatalf("Allow = %q, want %q", got, tc.allow)
			}
		})
	}
}
