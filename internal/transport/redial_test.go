package transport

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"proxykit/internal/faultpoint"
)

// TestTCPClientRecoversAfterTimeout is the regression test for the
// dead-after-timeout bug: a TCPClient whose call hit the per-call
// deadline used to be permanently unusable (every later call returned
// ErrClosed). Under the multiplexed client a timeout fails only that
// call — the connection stays up, no redial is needed, and once the
// server recovers the same client completes calls; the wedged
// handler's late response is discarded by ID.
func TestTCPClientRecoversAfterTimeout(t *testing.T) {
	var hang atomic.Bool
	hang.Store(true)
	release := make(chan struct{})
	mux := NewMux()
	mux.Handle("echo", func(_ context.Context, body []byte) ([]byte, error) {
		if hang.Load() {
			<-release // simulate a wedged server
		}
		return body, nil
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewTCPServer(l, mux)
	defer func() {
		close(release)
		_ = srv.Close()
	}()

	c, err := DialTCP(srv.Addr().String(), 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	redialsBefore := mClientRedials.Value()
	if _, err := c.Call("echo", []byte("first")); err == nil {
		t.Fatal("call against wedged server succeeded")
	} else {
		var nerr net.Error
		if !errors.As(err, &nerr) || !nerr.Timeout() {
			t.Fatalf("err = %v, want net timeout", err)
		}
	}

	// Server recovers; the SAME client must complete a call.
	hang.Store(false)
	resp, err := c.Call("echo", []byte("second"))
	if err != nil {
		t.Fatalf("post-recovery call failed: %v", err)
	}
	if !bytes.Equal(resp, []byte("second")) {
		t.Fatalf("resp = %q, want %q", resp, "second")
	}
	if got := mClientRedials.Value(); got != redialsBefore {
		t.Errorf("redial counter delta = %d, want 0 (timeout must not kill the connection)", got-redialsBefore)
	}
}

// TestTCPClientRecoversAfterServerRestart: a connection reset (server
// gone) must also leave the client usable once a server is back on the
// same address.
func TestTCPClientRecoversAfterServerRestart(t *testing.T) {
	mux := NewMux()
	mux.Handle("echo", func(_ context.Context, body []byte) ([]byte, error) {
		return body, nil
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	srv := NewTCPServer(l, mux)

	c, err := DialTCP(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call("echo", []byte("warm")); err != nil {
		t.Fatal(err)
	}

	// Kill the server; the in-flight connection dies with it.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call("echo", nil); err == nil {
		t.Fatal("call against dead server succeeded")
	}

	// Restart on the same address and call again with the same client.
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	srv2 := NewTCPServer(l2, mux)
	defer srv2.Close()
	resp, err := c.Call("echo", []byte("back"))
	if err != nil {
		t.Fatalf("post-restart call failed: %v", err)
	}
	if !bytes.Equal(resp, []byte("back")) {
		t.Fatalf("resp = %q, want %q", resp, "back")
	}
}

// TestTCPServerInjector drives the four server-side fault actions over
// a real socket: error surfaces as RemoteError, duplicate runs the
// handler twice for one response, drop forces a client timeout, and a
// disabled injector restores normal service.
func TestTCPServerInjector(t *testing.T) {
	var handled atomic.Int64
	mux := NewMux()
	mux.Handle("echo", func(_ context.Context, body []byte) ([]byte, error) {
		handled.Add(1)
		return body, nil
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewTCPServer(l, mux)
	defer srv.Close()

	c, err := DialTCP(srv.Addr().String(), 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Injected remote error.
	srv.SetInjector(faultpoint.New(1, faultpoint.Rule{Method: "echo", Err: 1}))
	_, err = c.Call("echo", []byte("x"))
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != faultpoint.RemoteErrMsg {
		t.Fatalf("err = %v, want injected RemoteError", err)
	}

	// Duplicate delivery: handler runs twice, client gets one reply.
	srv.SetInjector(faultpoint.New(1, faultpoint.Rule{Method: "echo", Dup: 1}))
	before := handled.Load()
	resp, err := c.Call("echo", []byte("dup"))
	if err != nil || !bytes.Equal(resp, []byte("dup")) {
		t.Fatalf("dup call = %q, %v", resp, err)
	}
	if got := handled.Load() - before; got != 2 {
		t.Fatalf("handler ran %d times under duplication, want 2", got)
	}

	// Drop: the request is swallowed, the client's deadline fires.
	srv.SetInjector(faultpoint.New(2, faultpoint.Rule{Method: "echo", Drop: 1}))
	_, err = c.Call("echo", []byte("lost"))
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("dropped call err = %v, want timeout", err)
	}

	// Clearing the injector restores service (and proves the client
	// survived the drop without losing its connection).
	srv.SetInjector(nil)
	if resp, err := c.Call("echo", []byte("ok")); err != nil || !bytes.Equal(resp, []byte("ok")) {
		t.Fatalf("post-injection call = %q, %v", resp, err)
	}
}

// TestRetryPolicyClassification: remote (application) errors are not
// retried; injected transport faults are; exhaustion is reported with
// the last error.
func TestRetryPolicyClassification(t *testing.T) {
	calls := 0
	err := RetryPolicy{MaxAttempts: 5, Sleep: func(time.Duration) {}}.Do("m", func(int) error {
		calls++
		return &RemoteError{Method: "m", Msg: "no such account"}
	})
	if calls != 1 {
		t.Fatalf("remote error retried %d times", calls-1)
	}
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError through", err)
	}

	calls = 0
	err = RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}}.Do("m", func(int) error {
		calls++
		return &faultpoint.Error{Action: faultpoint.ActDropRequest, Method: "m"}
	})
	if calls != 3 {
		t.Fatalf("transport fault tried %d times, want 3", calls)
	}
	if !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("exhausted err = %v, want last fault", err)
	}

	// Success on a later attempt stops the loop.
	calls = 0
	err = RetryPolicy{MaxAttempts: 5, Sleep: func(time.Duration) {}}.Do("m", func(a int) error {
		calls++
		if a < 2 {
			return &faultpoint.Error{Action: faultpoint.ActDropResponse, Method: "m"}
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("recovering call: err=%v calls=%d", err, calls)
	}
}

// TestRetryPolicyBackoff: delays grow exponentially and respect the
// budget.
func TestRetryPolicyBackoff(t *testing.T) {
	var delays []time.Duration
	p := RetryPolicy{
		MaxAttempts: 6,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
		Jitter:      -1, // disable for exact assertions
		Sleep:       func(d time.Duration) { delays = append(delays, d) },
	}
	_ = p.Do("m", func(int) error {
		return &faultpoint.Error{Action: faultpoint.ActDropRequest, Method: "m"}
	})
	want := []time.Duration{10, 20, 40, 50, 50}
	if len(delays) != len(want) {
		t.Fatalf("delays = %v", delays)
	}
	for i, d := range want {
		if delays[i] != d*time.Millisecond {
			t.Errorf("delay %d = %v, want %v", i, delays[i], d*time.Millisecond)
		}
	}

	// A zero policy makes exactly one attempt.
	calls := 0
	_ = RetryPolicy{}.Do("m", func(int) error {
		calls++
		return &faultpoint.Error{Action: faultpoint.ActDropRequest, Method: "m"}
	})
	if calls != 1 {
		t.Fatalf("zero policy made %d attempts", calls)
	}
}
