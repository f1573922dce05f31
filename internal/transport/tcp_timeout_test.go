package transport

import (
	"errors"
	"net"
	"testing"
	"time"
)

// TestTCPCallTimeout covers the per-call deadline: a server that never
// responds must not hang the client forever, the timeout must be
// counted, and only that call fails — the multiplexed connection stays
// up (a late response is discarded by ID, it cannot desynchronize the
// stream).
func TestTCPCallTimeout(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan struct{})
	defer close(done)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		<-done // hold the connection open without ever replying
	}()

	c, err := DialTCP(l.Addr().String(), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	before := mClientTimeouts.With("echo").Value()
	start := time.Now()
	_, err = c.Call("echo", []byte("ping"))
	if err == nil {
		t.Fatal("call to silent server succeeded")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("err = %v, want net timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("call took %v, deadline not applied", elapsed)
	}
	if got := mClientTimeouts.With("echo").Value(); got != before+1 {
		t.Errorf("timeout counter = %d, want %d", got, before+1)
	}

	// The timeout failed only that call; the client is not dead: the
	// next call reuses the live connection (and times out against the
	// still-silent server — crucially not ErrClosed).
	if _, err := c.Call("echo", nil); errors.Is(err, ErrClosed) {
		t.Fatalf("post-timeout call err = %v; client wedged", err)
	}

	// Only an explicit Close is terminal.
	_ = c.Close()
	if _, err := c.Call("echo", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close call err = %v, want ErrClosed", err)
	}
}
