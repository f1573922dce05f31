package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"proxykit/internal/faultpoint"
	"proxykit/internal/obs"
	"proxykit/internal/wire"
)

// DefaultServerWorkers bounds concurrent request handling per TCPServer
// when no explicit limit is configured. When every worker is busy the
// per-connection read loops block, which is the transport's natural
// backpressure: frames queue in the kernel, not in unbounded goroutines.
const DefaultServerWorkers = 64

// TCPServer serves a Mux on a listener. Each connection gets a read
// loop; every decoded frame is dispatched to a server-wide bounded
// worker pool, so one slow handler no longer stalls its connection —
// responses carry the request ID and may return out of order. Close
// stops the listener and waits for read loops and in-flight workers.
type TCPServer struct {
	mux *Mux
	l   net.Listener
	sem chan struct{} // worker slots

	mu       sync.Mutex
	closed   bool
	conns    map[net.Conn]struct{}
	injector *faultpoint.Injector
	wg       sync.WaitGroup
}

// NewTCPServer starts serving mux on l with DefaultServerWorkers.
func NewTCPServer(l net.Listener, mux *Mux) *TCPServer {
	return NewTCPServerWorkers(l, mux, 0)
}

// NewTCPServerWorkers starts serving mux on l with a bounded handler
// pool of the given size; workers <= 0 selects DefaultServerWorkers.
func NewTCPServerWorkers(l net.Listener, mux *Mux, workers int) *TCPServer {
	if workers <= 0 {
		workers = DefaultServerWorkers
	}
	s := &TCPServer{
		mux:   mux,
		l:     l,
		sem:   make(chan struct{}, workers),
		conns: make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener's address.
func (s *TCPServer) Addr() net.Addr { return s.l.Addr() }

// SetInjector installs a fault injector on the server side of the
// transport (the daemons' -fault-spec flag): matching requests can be
// dropped (the client times out), duplicated (the handler runs twice,
// one response), delayed, or failed with an injected remote error.
// Injection decisions and delays run inside the dispatched worker, not
// the connection read loop, so an injected delay stalls one request,
// not the whole connection. nil removes injection.
func (s *TCPServer) SetInjector(inj *faultpoint.Injector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.injector = inj
}

func (s *TCPServer) getInjector() *faultpoint.Injector {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.injector
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.l.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// connWriter serializes response frames onto one connection; workers
// finish in any order, so each write needs the frame lock.
type connWriter struct {
	mu   sync.Mutex
	conn net.Conn
}

func (w *connWriter) write(frame []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return wire.WriteFrame(w.conn, frame)
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	cw := &connWriter{conn: conn}
	// decodeRequest copies every field out of the frame, so the read
	// loop can recycle one scratch buffer across frames instead of
	// allocating per request.
	var scratch []byte
	for {
		req, next, err := wire.ReadFrameReuse(conn, scratch)
		if err != nil {
			return
		}
		scratch = next
		id, method, trace, body, err := decodeRequest(req)
		if err != nil {
			mServerMalformed.Inc()
			return // malformed peer; drop the connection
		}
		waited := time.Now()
		s.sem <- struct{}{} // bounded pool: block the read loop when saturated
		mServerWorkerWait.Observe(time.Since(waited).Seconds())
		s.wg.Add(1)
		go func() {
			defer func() {
				<-s.sem
				s.wg.Done()
			}()
			mServerWorkersBusy.Inc()
			defer mServerWorkersBusy.Dec()
			s.serveFrame(cw, id, method, trace, body)
		}()
	}
}

// serveFrame handles one dispatched request frame inside a pool worker:
// fault-injection decisions, the handler itself, and the response write.
func (s *TCPServer) serveFrame(cw *connWriter, id uint64, method, trace string, body []byte) {
	respond := true
	if inj := s.getInjector(); inj != nil {
		d := inj.Decide(method)
		if d.Delay > 0 {
			time.Sleep(d.Delay)
		}
		switch d.Action {
		case faultpoint.ActPartition, faultpoint.ActDropRequest:
			// Swallow the request; the client's deadline fires.
			return
		case faultpoint.ActError:
			// The client-side decoder wraps this as a RemoteError.
			e := encodeResponse(id, nil, errors.New(faultpoint.RemoteErrMsg))
			_ = cw.write(e.Bytes())
			e.Release()
			return
		case faultpoint.ActDropResponse:
			// The handler runs; the reply is lost.
			respond = false
		case faultpoint.ActDuplicate:
			// Duplicate delivery: the handler runs an extra time,
			// as if the network replayed the request frame.
			s.handleOne(trace, method, body)
		}
	}
	resp, herr := s.handleOne(trace, method, body)
	if !respond {
		return
	}
	e := encodeResponse(id, resp, herr)
	_ = cw.write(e.Bytes())
	e.Release()
}

// handleOne dispatches one decoded request with metrics and a server
// span.
func (s *TCPServer) handleOne(trace, method string, body []byte) ([]byte, error) {
	tr := obs.ParseTrace(trace)
	ctx := obs.ContextWithTrace(context.Background(), tr)
	mServerInflight.Inc()
	start := time.Now()
	resp, herr := dispatchSafely(ctx, s.mux, method, body)
	dur := time.Since(start)
	mServerInflight.Dec()
	mServerRequests.With(method).Inc()
	mServerLatency.With(method).Observe(dur.Seconds())
	span := obs.Span{Trace: tr, Kind: "server", Method: method, Start: start, Duration: dur}
	if herr != nil {
		mServerErrors.With(method).Inc()
		span.Err = herr.Error()
	}
	obs.Spans.Record(span)
	obs.DefaultSLO.Observe(method, dur, tr.TraceID)
	return resp, herr
}

// Close stops accepting, closes active connections, and waits for
// read loops and worker goroutines to exit.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.l.Close()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// dispatchSafely converts a handler panic into an error so one bad
// request cannot take the whole server down.
func dispatchSafely(ctx context.Context, m *Mux, method string, body []byte) (resp []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, fmt.Errorf("transport: handler panic in %s: %v", method, r)
		}
	}()
	return m.Dispatch(ctx, method, body)
}

// CallTimeoutError is the timeout-shaped error a multiplexed call
// returns when its per-call deadline fires. It satisfies net.Error so
// existing timeout classification (metrics, retry policies) applies.
type CallTimeoutError struct {
	// Method is the RPC that timed out.
	Method string
	// After is the deadline that elapsed.
	After time.Duration
}

// Error implements error.
func (e *CallTimeoutError) Error() string {
	return fmt.Sprintf("transport: call %s timed out after %v", e.Method, e.After)
}

// Timeout marks the error as a timeout (net.Error).
func (e *CallTimeoutError) Timeout() bool { return true }

// Temporary marks the error as retryable (net.Error).
func (e *CallTimeoutError) Temporary() bool { return true }

var _ net.Error = (*CallTimeoutError)(nil)

// clientConn is one multiplexed connection: a frame writer guarded by
// its own mutex (never held across a response wait) and a reader
// goroutine that demultiplexes response frames to pending calls by
// request ID.
type clientConn struct {
	conn net.Conn
	wmu  sync.Mutex // serializes request frames

	mu      sync.Mutex
	pending map[uint64]chan []byte // request ID -> buffered response slot
	dead    bool
	err     error // reader exit cause, set when dead
}

func newClientConn(conn net.Conn) *clientConn {
	cc := &clientConn{conn: conn, pending: make(map[uint64]chan []byte)}
	go cc.readLoop()
	return cc
}

// readLoop demultiplexes response frames until the connection fails,
// then fails every pending call with the read error.
func (cc *clientConn) readLoop() {
	for {
		frame, err := wire.ReadFrame(cc.conn)
		if err != nil {
			cc.fail(fmt.Errorf("transport: connection lost: %w", err))
			return
		}
		id, rest, err := splitResponseID(frame)
		if err != nil {
			cc.fail(err)
			return
		}
		cc.mu.Lock()
		ch, ok := cc.pending[id]
		if ok {
			delete(cc.pending, id)
		}
		cc.mu.Unlock()
		if !ok {
			// A response whose call already timed out (or an injected
			// duplicate): discard without disturbing other calls.
			mClientStaleResponses.Inc()
			continue
		}
		ch <- rest // buffered; never blocks the demux loop
	}
}

// fail marks the connection dead and wakes every pending call.
func (cc *clientConn) fail(err error) {
	_ = cc.conn.Close()
	cc.mu.Lock()
	if cc.dead {
		cc.mu.Unlock()
		return
	}
	cc.dead = true
	cc.err = err
	pending := cc.pending
	cc.pending = make(map[uint64]chan []byte)
	cc.mu.Unlock()
	for _, ch := range pending {
		close(ch) // a closed slot signals connection failure
	}
}

// register allocates a response slot for id. It reports false when the
// connection is already dead.
func (cc *clientConn) register(id uint64) (chan []byte, bool) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.dead {
		return nil, false
	}
	ch := make(chan []byte, 1)
	cc.pending[id] = ch
	return ch, true
}

// deregister removes a pending slot (deadline expiry, injected drop).
// The response, if it ever arrives, is discarded by the read loop.
func (cc *clientConn) deregister(id uint64) {
	cc.mu.Lock()
	delete(cc.pending, id)
	cc.mu.Unlock()
}

// send writes one request frame. writeTimeout bounds the write so a
// peer that stops reading cannot wedge every caller behind the frame
// lock; a write failure kills the connection.
func (cc *clientConn) send(frame []byte, writeTimeout time.Duration) error {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	if writeTimeout > 0 {
		if err := cc.conn.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
			return err
		}
	}
	if err := wire.WriteFrame(cc.conn, frame); err != nil {
		cc.fail(err)
		return err
	}
	return nil
}

// TCPClient is a pipelined, multiplexed Client: any number of calls may
// be in flight concurrently over each connection, matched to responses
// by request ID. A call that hits its per-call deadline fails alone —
// the connection and every other in-flight call are undisturbed, and
// the stale response is discarded by the demultiplexer when it finally
// arrives. Only a transport-level failure (dial error, write error,
// connection reset) tears a connection down, and the next call through
// that slot redials automatically. Only Close is terminal.
type TCPClient struct {
	addr    string
	timeout time.Duration // dial timeout and per-call deadline
	next    atomic.Uint64 // request ID source
	rr      atomic.Uint64 // round-robin pool cursor

	mu       sync.Mutex // guards conns/closed/injector, never held across I/O
	conns    []*clientConn
	dialed   []bool // slot ever had a connection (distinguishes redial)
	closed   bool
	injector *faultpoint.Injector
}

// DialTCP connects to a proxykit service at addr with a single
// multiplexed connection. timeout bounds the dial and every call, so a
// hung daemon cannot wedge the client forever.
func DialTCP(addr string, timeout time.Duration) (*TCPClient, error) {
	return DialTCPPool(addr, timeout, 1)
}

// DialTCPPool is DialTCP with a small connection pool: calls are spread
// round-robin over size multiplexed connections. A pool is useful when
// a single connection's frame stream (or the kernel's per-socket
// buffering) becomes the bottleneck; most callers want size 1.
func DialTCPPool(addr string, timeout time.Duration, size int) (*TCPClient, error) {
	if size <= 0 {
		size = 1
	}
	c := &TCPClient{
		addr:    addr,
		conns:   make([]*clientConn, size),
		dialed:  make([]bool, size),
		timeout: timeout,
	}
	conn, err := net.DialTimeout("tcp", addr, c.dialTimeout())
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	c.conns[0] = newClientConn(conn)
	c.dialed[0] = true
	return c, nil
}

// SetInjector installs a client-side fault injector: outbound calls
// can be dropped (observed as a timeout), duplicated on the wire,
// delayed, failed remotely, or partitioned. Decisions and delays run
// outside the client's mutex, so an injected delay stalls one call,
// not every concurrent caller. nil removes injection.
func (c *TCPClient) SetInjector(inj *faultpoint.Injector) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.injector = inj
}

// dialTimeout returns a sane bound for dialing even when the per-call
// deadline was disabled.
func (c *TCPClient) dialTimeout() time.Duration {
	if c.timeout > 0 {
		return c.timeout
	}
	return 10 * time.Second
}

// getConn returns a live connection from the pool, redialing the slot
// if its previous connection died.
func (c *TCPClient) getConn() (*clientConn, error) {
	slot := int(c.rr.Add(1)-1) % len(c.conns)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	cc := c.conns[slot]
	if cc != nil {
		cc.mu.Lock()
		dead := cc.dead
		cc.mu.Unlock()
		if !dead {
			c.mu.Unlock()
			return cc, nil
		}
		c.conns[slot] = nil
	}
	redial := c.dialed[slot]
	dialTO := c.dialTimeout()
	c.mu.Unlock()

	// Dial outside the lock: other slots keep serving calls meanwhile.
	conn, err := net.DialTimeout("tcp", c.addr, dialTO)
	if err != nil {
		return nil, fmt.Errorf("transport: redial %s: %w", c.addr, err)
	}
	if redial {
		mClientRedials.Inc()
	}
	cc = newClientConn(conn)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		cc.fail(ErrClosed)
		return nil, ErrClosed
	}
	if existing := c.conns[slot]; existing != nil {
		// A concurrent caller redialed the slot first; use theirs.
		c.mu.Unlock()
		cc.fail(ErrClosed)
		return existing, nil
	}
	c.conns[slot] = cc
	c.dialed[slot] = true
	c.mu.Unlock()
	return cc, nil
}

// Call implements Client. Each call starts a fresh trace whose context
// travels in the request envelope, registers a response slot under a
// new request ID, sends its frame (holding only the per-connection
// write lock for the write itself), and waits for the demultiplexed
// response or the per-call deadline — concurrent calls on one client
// proceed in parallel and responses may return in any order.
func (c *TCPClient) Call(method string, body []byte) ([]byte, error) {
	return c.CallTrace(obs.Trace{}, method, body)
}

// CallTrace is Call with an explicit parent trace context: the outgoing
// request travels as a child span of parent, so a multi-hop operation
// (e.g. an HTTP request through the gateway) shares one trace ID from
// the edge to every downstream RPC. A zero parent starts a fresh root
// trace, which is what Call does.
func (c *TCPClient) CallTrace(parent obs.Trace, method string, body []byte) ([]byte, error) {
	c.mu.Lock()
	closed, inj := c.closed, c.injector
	c.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	tr := obs.NewTrace()
	if parent.TraceID != "" {
		tr = parent.Child()
	}
	mClientRequests.With(method).Inc()
	start := time.Now()
	resp, err := c.callInjected(method, tr, body, c.timeout, inj)
	dur := time.Since(start)
	mClientLatency.With(method).Observe(dur.Seconds())
	span := obs.Span{Trace: tr, Kind: "client", Method: method, Start: start, Duration: dur}
	if err != nil {
		span.Err = err.Error()
		mClientErrors.With(method).Inc()
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			mClientTimeouts.With(method).Inc()
		}
	}
	obs.Spans.Record(span)
	return resp, err
}

// callInjected applies any client-side fault decision around the real
// exchange. Decisions, delays, and all I/O happen outside the client
// mutex, so injection on one call cannot stall concurrent callers.
// Injected drops return a timeout-shaped error, mirroring what a real
// lost frame produces.
func (c *TCPClient) callInjected(method string, tr obs.Trace, body []byte, timeout time.Duration, inj *faultpoint.Injector) ([]byte, error) {
	if inj != nil {
		d := inj.Decide(method)
		if d.Delay > 0 {
			time.Sleep(d.Delay)
		}
		switch d.Action {
		case faultpoint.ActPartition, faultpoint.ActDropRequest:
			return nil, &faultpoint.Error{Action: d.Action, Method: method}
		case faultpoint.ActError:
			return nil, &RemoteError{Method: method, Msg: faultpoint.RemoteErrMsg}
		case faultpoint.ActDropResponse:
			// The request goes out and is served; the reply is
			// discarded unread by the demultiplexer (no waiter), like
			// any stale response — the connection survives.
			cc, err := c.getConn()
			if err != nil {
				return nil, err
			}
			id := c.next.Add(1)
			e := encodeRequest(id, method, tr.String(), body)
			err = cc.send(e.Bytes(), timeout)
			e.Release()
			if err != nil {
				return nil, err
			}
			return nil, &faultpoint.Error{Action: d.Action, Method: method}
		case faultpoint.ActDuplicate:
			// The frame is sent twice under one ID; the first response
			// wins, the demultiplexer discards the second as stale.
			return c.exchange(method, tr, body, timeout, 2)
		}
	}
	return c.exchange(method, tr, body, timeout, 1)
}

// exchange performs one multiplexed request/response: register the
// response slot, write the frame copies times, await the response or
// the deadline.
func (c *TCPClient) exchange(method string, tr obs.Trace, body []byte, timeout time.Duration, copies int) ([]byte, error) {
	cc, err := c.getConn()
	if err != nil {
		return nil, err
	}
	id := c.next.Add(1)
	ch, ok := cc.register(id)
	if !ok {
		return nil, fmt.Errorf("transport: connection lost before send")
	}
	mClientPending.Inc()
	defer mClientPending.Dec()
	e := encodeRequest(id, method, tr.String(), body)
	for i := 0; i < copies; i++ {
		if err := cc.send(e.Bytes(), timeout); err != nil {
			e.Release()
			cc.deregister(id)
			return nil, err
		}
	}
	e.Release()

	var timer *time.Timer
	var deadline <-chan time.Time
	if timeout > 0 {
		timer = time.NewTimer(timeout)
		defer timer.Stop()
		deadline = timer.C
	}
	select {
	case rest, open := <-ch:
		if !open {
			cc.mu.Lock()
			err := cc.err
			cc.mu.Unlock()
			if err == nil {
				err = fmt.Errorf("transport: connection lost")
			}
			return nil, err
		}
		return decodeResponse(method, rest)
	case <-deadline:
		cc.deregister(id)
		// Drain the race where the response landed between the timer
		// firing and deregistration.
		select {
		case rest, open := <-ch:
			if open {
				return decodeResponse(method, rest)
			}
		default:
		}
		return nil, &CallTimeoutError{Method: method, After: timeout}
	}
}

// Close closes every pooled connection and marks the client dead;
// subsequent calls return ErrClosed rather than redialing.
func (c *TCPClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := c.conns
	c.conns = make([]*clientConn, len(conns))
	c.mu.Unlock()
	for _, cc := range conns {
		if cc != nil {
			cc.fail(ErrClosed)
		}
	}
	return nil
}

var (
	_ Client      = (*memClient)(nil)
	_ Client      = (*TCPClient)(nil)
	_ TraceClient = (*memClient)(nil)
	_ TraceClient = (*TCPClient)(nil)
)
