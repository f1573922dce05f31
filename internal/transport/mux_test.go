package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proxykit/internal/faultpoint"
	"proxykit/internal/obs"
)

// pollUntil spins until cond holds or the deadline passes, reporting
// whether cond held. Tests use it in place of fixed sleeps so a loaded
// machine cannot turn a scheduling hiccup into a flake.
func pollUntil(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// faultDelays reads the process-global injected-delay counter through
// the registry's JSON rendering (the raw counter is private to
// faultpoint).
func faultDelays(t *testing.T) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doc := map[string]any{}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	v, _ := doc["proxykit_fault_delays_total"].(float64)
	return v
}

// slowEchoMux echoes its body after a per-call delay carried in the
// first 8 bytes (nanoseconds, big-endian; see delayedBody); bodies
// shorter than the header echo back whole, at once.
func slowEchoMux() *Mux {
	m := NewMux()
	m.Handle("echo", func(_ context.Context, body []byte) ([]byte, error) {
		if len(body) >= 8 {
			if d := time.Duration(binary.BigEndian.Uint64(body[:8])); d > 0 {
				time.Sleep(d)
			}
			return body[8:], nil
		}
		return body, nil
	})
	return m
}

func delayedBody(d time.Duration, payload []byte) []byte {
	b := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint64(b, uint64(d))
	copy(b[8:], payload)
	return b
}

// TestMuxConcurrentCallsOneClient: many concurrent calls on a single
// client/connection all complete with their own responses — the demux
// by request ID routes out-of-order replies correctly.
func TestMuxConcurrentCallsOneClient(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewTCPServer(l, slowEchoMux())
	defer srv.Close()

	c, err := DialTCP(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const calls = 64
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Stagger delays so responses return out of order.
			d := time.Duration((calls-i)%8) * 2 * time.Millisecond
			msg := []byte(fmt.Sprintf("payload-%03d", i))
			got, err := c.Call("echo", delayedBody(d, msg))
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			if !bytes.Equal(got, msg) {
				t.Errorf("call %d: got %q, want %q (cross-wired response)", i, got, msg)
			}
		}(i)
	}
	wg.Wait()
}

// TestMuxSlowCallDoesNotStallOthers: with one in-flight slow call, fast
// calls on the same connection complete immediately instead of queueing
// behind it (the old serialized client forced FIFO round trips).
func TestMuxSlowCallDoesNotStallOthers(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewTCPServer(l, slowEchoMux())
	defer srv.Close()

	c, err := DialTCP(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	inflightBefore := mServerInflight.Value()
	slowDone := make(chan error, 1)
	go func() {
		_, err := c.Call("echo", delayedBody(400*time.Millisecond, []byte("slow")))
		slowDone <- err
	}()
	// Wait until the server reports the slow call in flight; its handler
	// then sleeps 400ms, so the fast calls below race only against that.
	if !pollUntil(2*time.Second, func() bool { return mServerInflight.Value() > inflightBefore }) {
		t.Fatal("slow call never reached the server")
	}

	start := time.Now()
	for i := 0; i < 5; i++ {
		if _, err := c.Call("echo", []byte("fast")); err != nil {
			t.Fatalf("fast call %d: %v", i, err)
		}
	}
	if fast := time.Since(start); fast > 300*time.Millisecond {
		t.Fatalf("fast calls took %v behind a slow one — transport still serialized", fast)
	}
	if err := <-slowDone; err != nil {
		t.Fatalf("slow call: %v", err)
	}
}

// TestMuxTimeoutIsolatesOneCall: a call that hits its deadline fails
// alone; a concurrent call on the same connection still completes, and
// the late response is counted as stale rather than delivered to the
// wrong caller.
func TestMuxTimeoutIsolatesOneCall(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewTCPServer(l, slowEchoMux())
	defer srv.Close()

	c, err := DialTCP(srv.Addr().String(), 80*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	staleBefore := mClientStaleResponses.Value()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, err := c.Call("echo", delayedBody(300*time.Millisecond, []byte("late")))
		var nerr net.Error
		if !errors.As(err, &nerr) || !nerr.Timeout() {
			t.Errorf("slow call err = %v, want timeout", err)
		}
	}()
	go func() {
		defer wg.Done()
		got, err := c.Call("echo", []byte("quick"))
		if err != nil || !bytes.Equal(got, []byte("quick")) {
			t.Errorf("concurrent quick call: %q %v", got, err)
		}
	}()
	wg.Wait()

	// After the late response finally arrives it must be discarded.
	deadline := time.Now().Add(2 * time.Second)
	for mClientStaleResponses.Value() == staleBefore && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := mClientStaleResponses.Value(); got != staleBefore+1 {
		t.Errorf("stale responses delta = %d, want 1", got-staleBefore)
	}

	// The connection survived: another call on the same client works.
	if got, err := c.Call("echo", []byte("after")); err != nil || !bytes.Equal(got, []byte("after")) {
		t.Fatalf("post-timeout call: %q %v", got, err)
	}
}

// TestMuxConnectionPool: a pooled client spreads calls over several
// connections and completes them all.
func TestMuxConnectionPool(t *testing.T) {
	var conns atomic.Int64
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	countingL := &connCountListener{Listener: l, n: &conns}
	srv := NewTCPServer(countingL, slowEchoMux())
	defer srv.Close()

	c, err := DialTCPPool(l.Addr().String(), 5*time.Second, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < 30; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := []byte(fmt.Sprintf("p%d", i))
			got, err := c.Call("echo", msg)
			if err != nil || !bytes.Equal(got, msg) {
				t.Errorf("pooled call %d: %q %v", i, got, err)
			}
		}(i)
	}
	wg.Wait()
	if got := conns.Load(); got < 2 {
		t.Errorf("pool opened %d connections, want >= 2", got)
	}
}

type connCountListener struct {
	net.Listener
	n *atomic.Int64
}

func (l *connCountListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

// TestServerWorkerPoolBounds: a server with a 2-worker pool still
// completes a burst larger than the pool (backpressure, not loss), and
// the busy gauge never exceeds the bound.
func TestServerWorkerPoolBounds(t *testing.T) {
	var busy, maxBusy atomic.Int64
	m := NewMux()
	m.Handle("work", func(_ context.Context, body []byte) ([]byte, error) {
		b := busy.Add(1)
		for {
			cur := maxBusy.Load()
			if b <= cur || maxBusy.CompareAndSwap(cur, b) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		busy.Add(-1)
		return body, nil
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewTCPServerWorkers(l, m, 2)
	defer srv.Close()

	c, err := DialTCP(srv.Addr().String(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := []byte{byte(i)}
			got, err := c.Call("work", msg)
			if err != nil || !bytes.Equal(got, msg) {
				t.Errorf("call %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if got := maxBusy.Load(); got > 2 {
		t.Fatalf("max concurrent handlers = %d, want <= 2", got)
	}
}

// TestMuxInjectedDelayDoesNotStallPeers: the satellite bugfix — an
// injected client-side delay used to sleep while holding TCPClient.mu,
// serializing every caller behind it. Delays must now apply per call.
func TestMuxInjectedDelayDoesNotStallPeers(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewTCPServer(l, slowEchoMux())
	defer srv.Close()

	c, err := DialTCP(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Delay only the "slowmethod" calls; "echo" is untouched.
	inj, err := faultpoint.Parse("slowmethod:delay=300ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	c.SetInjector(inj)

	delaysBefore := faultDelays(t)
	delayed := make(chan struct{})
	go func() {
		defer close(delayed)
		// The method is unknown server-side: the call errors remotely,
		// but only after the injected client-side delay.
		_, _ = c.Call("slowmethod", nil)
	}()
	// The injector counts the delay verdict as it is decided, right
	// before the sleep begins — once the counter moves, the delayed call
	// has passed the lock acquisition and entered its injected sleep.
	if !pollUntil(2*time.Second, func() bool { return faultDelays(t) > delaysBefore }) {
		t.Fatal("injected delay was never decided")
	}

	start := time.Now()
	if _, err := c.Call("echo", []byte("free")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Fatalf("echo call waited %v behind an injected delay — injection still inside the lock", d)
	}
	<-delayed
}
