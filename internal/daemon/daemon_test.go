package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"proxykit/internal/audit"
	"proxykit/internal/group"
	"proxykit/internal/principal"
	"proxykit/internal/repl"
	"proxykit/internal/svc"
	"proxykit/internal/transport"
)

var alice = principal.New("alice", "EXAMPLE.ORG")

// groupDaemon is a groupd in miniature: the real group server behind
// the runner. onStart sees the server once recovery and replication are
// up, where a daemon's provisioning hook runs.
func groupDaemon(onStart func(srv *group.Server, standby bool)) *Daemon {
	d := New(Spec{Prog: "testd", Server: "test server", Name: "groups", Listen: "127.0.0.1:8091", ChainCache: true, Durable: true})
	d.Build = func(env *Env) (*Service, error) {
		srv := group.New(env.Identity, nil)
		srv.SetJournal(env.Journal)
		return &Service{
			Mux:   svc.NewGroupService(srv, env.Resolve, nil).Mux(),
			Store: &srv.Store,
			Start: func(standby bool) error {
				onStart(srv, standby)
				return nil
			},
		}, nil
	}
	return d
}

// running is one daemon started on loopback ephemeral ports.
type running struct {
	rpc, metrics string
	cancel       context.CancelFunc
	done         chan error
}

func start(t *testing.T, d *Daemon, args ...string) *running {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	r := &running{cancel: cancel, done: make(chan error, 1)}
	ready := make(chan struct{})
	d.ready = func(rpc, metrics string) {
		r.rpc, r.metrics = rpc, metrics
		close(ready)
	}
	args = append([]string{"-listen", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-log-level", "error"}, args...)
	go func() { r.done <- d.Run(ctx, args) }()
	select {
	case <-ready:
	case err := <-r.done:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never started listening")
	}
	return r
}

func (r *running) stop(t *testing.T) {
	t.Helper()
	r.cancel()
	select {
	case err := <-r.done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down when its context was cancelled")
	}
}

func (r *running) healthz(t *testing.T) map[string]any {
	t.Helper()
	resp, err := http.Get("http://" + r.metrics + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestLifecycleRecoversAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-state", filepath.Join(dir, "state"),
		"-ledger-dir", filepath.Join(dir, "ledger"),
		"-audit-file", filepath.Join(dir, "audit.jsonl"),
	}

	first := start(t, groupDaemon(func(srv *group.Server, standby bool) {
		if standby || !srv.Empty() {
			t.Errorf("first start: standby=%v empty=%v, want a fresh primary", standby, srv.Empty())
		}
		srv.AddMember("staff", alice)
	}), args...)
	h := first.healthz(t)
	for key, want := range map[string]any{
		"status":        "ok",
		"auditRecords":  float64(0), // journal
		"ledgerLastSeq": float64(1), // ledger: the one AddMember
		"ledgerFailed":  false,
		"replRole":      "primary", // replication node
		"replLastSeq":   float64(1),
	} {
		if !reflect.DeepEqual(h[key], want) {
			t.Errorf("/healthz %s = %v, want %v (document: %v)", key, h[key], want, h)
		}
	}
	// The RPC listener serves the mux with the repl.* methods mounted.
	rpc, err := transport.DialTCP(first.rpc, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	st, err := repl.NewClient(rpc).Status()
	rpc.Close()
	if err != nil || st.Role != repl.RolePrimary || st.LastSeq != 1 {
		t.Errorf("repl.status over the RPC listener = %+v, %v; want primary at seq 1", st, err)
	}
	first.stop(t)
	if _, err := http.Get("http://" + first.metrics + "/healthz"); err == nil {
		t.Error("metrics listener still serving after shutdown")
	}

	var recovered []string
	second := start(t, groupDaemon(func(srv *group.Server, _ bool) { recovered = srv.Groups() }), args...)
	if !reflect.DeepEqual(recovered, []string{"staff"}) {
		t.Fatalf("restart recovered groups %v, want [staff]", recovered)
	}
	if got := second.healthz(t)["ledgerLastSeq"]; got != float64(1) {
		t.Errorf("restart /healthz ledgerLastSeq = %v, want 1", got)
	}
	second.stop(t)
}

func TestReplicationFlagCombinationsRefused(t *testing.T) {
	dir := t.TempDir()
	state := []string{"-state", filepath.Join(dir, "state"), "-log-level", "error"}
	ledgerDir := []string{"-ledger-dir", filepath.Join(dir, "ledger")}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"standby without a source", append([]string{"-standby"}, ledgerDir...), "-standby requires -replicate-from"},
		{"source without standby", append([]string{"-replicate-from", "127.0.0.1:1"}, ledgerDir...), "-replicate-from requires -standby"},
		{"standby without a ledger", []string{"-standby", "-replicate-from", "127.0.0.1:1"}, "replication requires -ledger-dir"},
		{"semi-sync without a ledger", []string{"-repl-sync-timeout", "1s"}, "replication requires -ledger-dir"},
	} {
		d := groupDaemon(func(*group.Server, bool) { t.Errorf("%s: daemon reached its start hook", tc.name) })
		// An already-cancelled context: a daemon that wrongly comes up
		// shuts straight down instead of hanging the test.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		err := d.Run(ctx, append(append([]string{"-listen", "127.0.0.1:0"}, state...), tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Run = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestTornAuditTailRepairedAtStart: a journal whose last line was cut
// short by a crash mid-append is trimmed at start-up and its intact
// records kept; a byte flipped mid-chain is tampering, and Run refuses.
func TestTornAuditTailRepairedAtStart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "audit.jsonl")
	j, err := audit.New(audit.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"read", "write"} {
		j.Append(audit.Record{Kind: audit.KindAuthorize, Object: "/doc", Op: op, Outcome: audit.OutcomeGranted})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(append([]byte{}, intact...), `{"seq":3,"kind":"end.au`...), 0o600); err != nil {
		t.Fatal(err)
	}
	args := []string{"-state", filepath.Join(dir, "state"), "-audit-file", path}
	r := start(t, groupDaemon(func(*group.Server, bool) {}), args...)
	if got := r.healthz(t)["auditRecords"]; got != float64(2) {
		t.Errorf("/healthz auditRecords = %v after a torn tail, want 2", got)
	}
	r.stop(t)

	tampered := append([]byte{}, intact...)
	tampered[bytes.Index(tampered, []byte("/doc"))+1] ^= 0x01
	if err := os.WriteFile(path, tampered, 0o600); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := groupDaemon(func(*group.Server, bool) {}).Run(ctx, append([]string{"-listen", "127.0.0.1:0", "-log-level", "error"}, args...)); err == nil {
		t.Fatal("Run started over a journal with a flipped byte mid-chain")
	}
}
