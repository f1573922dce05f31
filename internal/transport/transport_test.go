package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"proxykit/internal/faultpoint"
	"proxykit/internal/obs"
)

func echoMux() *Mux {
	m := NewMux()
	m.Handle("echo", func(_ context.Context, body []byte) ([]byte, error) {
		return body, nil
	})
	m.Handle("fail", func(_ context.Context, body []byte) ([]byte, error) {
		return nil, errors.New("handler exploded")
	})
	return m
}

func TestMemNetworkCall(t *testing.T) {
	n := NewNetwork()
	n.Register("svc", echoMux())
	c, err := n.Dial("svc")
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Call("echo", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("got %q", got)
	}
}

func TestMemNetworkRemoteError(t *testing.T) {
	n := NewNetwork()
	n.Register("svc", echoMux())
	c := n.MustDial("svc")
	_, err := c.Call("fail", nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v", err)
	}
	if re.Msg != "handler exploded" || re.Method != "fail" {
		t.Fatalf("re = %+v", re)
	}
}

func TestMemNetworkUnknowns(t *testing.T) {
	n := NewNetwork()
	n.Register("svc", echoMux())
	if _, err := n.Dial("nope"); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("dial err = %v", err)
	}
	c := n.MustDial("svc")
	_, err := c.Call("nope", nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("unknown method should arrive as remote error, got %v", err)
	}
}

func TestMustDialPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewNetwork().MustDial("missing")
}

func TestStatsCounting(t *testing.T) {
	n := NewNetwork()
	n.Register("svc", echoMux())
	c := n.MustDial("svc")
	for i := 0; i < 3; i++ {
		if _, err := c.Call("echo", []byte("abcd")); err != nil {
			t.Fatal(err)
		}
	}
	msgs, rts, bytesN := n.Stats().Snapshot()
	if msgs != 6 {
		t.Fatalf("messages = %d, want 6", msgs)
	}
	if rts != 3 {
		t.Fatalf("round trips = %d, want 3", rts)
	}
	if bytesN != 3*8 { // 4 bytes each way per call
		t.Fatalf("bytes = %d, want 24", bytesN)
	}
	n.Stats().Reset()
	if m, r, b := n.Stats().Snapshot(); m|r|b != 0 {
		t.Fatal("reset failed")
	}
}

// TestSleepLatency: a delay the injector decides really delays a call
// on the in-memory network.
func TestSleepLatency(t *testing.T) {
	n := NewNetwork()
	n.Register("svc", echoMux())
	n.SetInjector(faultpoint.New(1, faultpoint.Rule{Method: "echo", Delay: 20 * time.Millisecond}))
	c := n.MustDial("svc")
	start := time.Now()
	if _, err := c.Call("echo", nil); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("call returned in %v, want >= 20ms", elapsed)
	}
}

func TestConcurrentCalls(t *testing.T) {
	n := NewNetwork()
	n.Register("svc", echoMux())
	c := n.MustDial("svc")
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := []byte(fmt.Sprintf("msg-%d", i))
			got, err := c.Call("echo", msg)
			if err != nil || !bytes.Equal(got, msg) {
				t.Errorf("call %d: %v %q", i, err, got)
			}
		}(i)
	}
	wg.Wait()
	if _, rts, _ := n.Stats().Snapshot(); rts != 50 {
		t.Fatalf("round trips = %d", rts)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewTCPServer(l, echoMux())
	defer srv.Close()

	c, err := DialTCP(srv.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	got, err := c.Call("echo", []byte("over tcp"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("over tcp")) {
		t.Fatalf("got %q", got)
	}

	// Errors cross the wire as RemoteError.
	_, err = c.Call("fail", nil)
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "handler exploded" {
		t.Fatalf("err = %v", err)
	}

	// Multiple sequential calls on one connection.
	for i := 0; i < 10; i++ {
		if _, err := c.Call("echo", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTCPServerClose(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewTCPServer(l, echoMux())
	c, err := DialTCP(srv.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call("echo", nil); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := c.Call("echo", nil); err == nil {
		t.Fatal("call succeeded after server close")
	}
	_ = c.Close()
	if _, err := c.Call("echo", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed client err = %v", err)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewTCPServer(l, echoMux())
	defer srv.Close()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := DialTCP(srv.Addr().String(), time.Second)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				msg := []byte(fmt.Sprintf("%d-%d", i, j))
				got, err := c.Call("echo", msg)
				if err != nil || !bytes.Equal(got, msg) {
					t.Errorf("client %d call %d: %v", i, j, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestDialTCPFailure(t *testing.T) {
	if _, err := DialTCP("127.0.0.1:1", 100*time.Millisecond); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestRequestResponseEncoding(t *testing.T) {
	be := encodeRequest(42, "method.name", "abc123-def456", []byte("body"))
	defer be.Release()
	id, m, trace, body, err := decodeRequest(be.Bytes())
	if err != nil || id != 42 || m != "method.name" || trace != "abc123-def456" || !bytes.Equal(body, []byte("body")) {
		t.Fatalf("%d %q %q %q %v", id, m, trace, body, err)
	}
	if _, _, _, _, err := decodeRequest([]byte("garbage")); err == nil {
		t.Fatal("garbage request accepted")
	}

	r := encodeResponse(42, []byte("ok"), nil)
	defer r.Release()
	id, rest, err := splitResponseID(r.Bytes())
	if err != nil || id != 42 {
		t.Fatalf("split: id=%d err=%v", id, err)
	}
	body, err = decodeResponse("m", rest)
	if err != nil || !bytes.Equal(body, []byte("ok")) {
		t.Fatalf("%q %v", body, err)
	}
	r2 := encodeResponse(7, nil, errors.New("boom"))
	defer r2.Release()
	id, rest, err = splitResponseID(r2.Bytes())
	if err != nil || id != 7 {
		t.Fatalf("split: id=%d err=%v", id, err)
	}
	_, err = decodeResponse("m", rest)
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "boom" {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := splitResponseID([]byte{2, 3}); err == nil {
		t.Fatal("short response frame accepted")
	}
	if _, err := decodeResponse("m", []byte{2, 3}); err == nil {
		t.Fatal("garbage response accepted")
	}
}

func TestTCPServerSurvivesHandlerPanic(t *testing.T) {
	m := NewMux()
	m.Handle("boom", func(context.Context, []byte) ([]byte, error) { panic("handler bug") })
	m.Handle("ok", func(_ context.Context, b []byte) ([]byte, error) { return b, nil })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewTCPServer(l, m)
	defer srv.Close()
	c, err := DialTCP(srv.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Call("boom", nil)
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "panic") {
		t.Fatalf("err = %v", err)
	}
	// The connection and server are still serviceable.
	got, err := c.Call("ok", []byte("still alive"))
	if err != nil || string(got) != "still alive" {
		t.Fatalf("after panic: %q %v", got, err)
	}
}

// TestHandlerContextCarriesTrace asserts both transports hand handlers
// a context carrying the request trace, so audit records can join it.
func TestHandlerContextCarriesTrace(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	m := NewMux()
	m.Handle("trace", func(ctx context.Context, _ []byte) ([]byte, error) {
		tr, ok := obs.TraceFrom(ctx)
		if !ok {
			return nil, errors.New("no trace in context")
		}
		mu.Lock()
		seen = append(seen, tr.TraceID)
		mu.Unlock()
		return []byte(tr.TraceID), nil
	})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewTCPServer(l, m)
	defer srv.Close()
	c, err := DialTCP(srv.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Call("trace", nil)
	if err != nil {
		t.Fatal(err)
	}
	// The handler-side trace ID must match what the client span recorded.
	var clientTrace string
	for _, s := range obs.Spans.Recent() {
		if s.Kind == "client" && s.Method == "trace" {
			clientTrace = s.TraceID
			break
		}
	}
	if clientTrace == "" || string(got) != clientTrace {
		t.Fatalf("handler saw trace %q, client span has %q", got, clientTrace)
	}

	// In-memory network: a fresh trace per call, still present in ctx.
	n := NewNetwork()
	n.Register("svc", m)
	if _, err := n.MustDial("svc").Call("trace", nil); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 || seen[0] == "" || seen[1] == "" {
		t.Fatalf("handler trace IDs = %q", seen)
	}
}
