// Package transport provides the message substrate the proxykit services
// run on: a request/response RPC abstraction with two implementations —
// an in-memory network that meters messages and injects faults (the
// measurement substrate for the experiments), and a TCP transport for
// the cmd/ daemons.
//
// The paper's design arguments are about message counts and round trips
// (e.g. offline proxy-chain verification vs Sollins's per-link
// authentication-server contact, §3.4); the in-memory network counts
// both so experiments can report them exactly.
package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"proxykit/internal/faultpoint"
	"proxykit/internal/obs"
	"proxykit/internal/wire"
)

// Errors returned by transports.
var (
	ErrUnknownService = errors.New("transport: unknown service")
	ErrUnknownMethod  = errors.New("transport: unknown method")
	ErrClosed         = errors.New("transport: closed")
)

// RemoteError carries an application-level error string returned by a
// remote handler.
type RemoteError struct {
	// Method is the RPC that failed.
	Method string
	// Msg is the remote error text.
	Msg string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("transport: remote %s: %s", e.Method, e.Msg)
}

// Handler processes one request body and returns a response body. The
// context carries the request's obs.Trace (obs.TraceFrom), so handlers
// and the decision points behind them can tag audit records and
// downstream calls with the originating trace ID.
type Handler func(ctx context.Context, body []byte) ([]byte, error)

// Client issues RPCs to one service.
type Client interface {
	// Call invokes method with body and returns the response body; a
	// *RemoteError reports handler-level failures.
	Call(method string, body []byte) ([]byte, error)
}

// TraceClient is a Client whose calls can join an existing trace: the
// outgoing request is recorded as a child span of parent instead of a
// fresh root. Both transport implementations satisfy it.
type TraceClient interface {
	Client
	// CallTrace is Call with an explicit parent trace context; a zero
	// parent behaves like Call.
	CallTrace(parent obs.Trace, method string, body []byte) ([]byte, error)
}

// WithTrace binds a parent trace to c: every Call through the returned
// Client travels as a child span of parent. If c does not support trace
// propagation the calls pass through unchanged (fresh root traces).
// Service clients (svc.EndClient etc.) only see transport.Client, so
// this is how an edge daemon threads its per-request trace into the
// sealed-envelope call helpers without changing their signatures.
func WithTrace(c Client, parent obs.Trace) Client {
	tc, ok := c.(TraceClient)
	if !ok || parent.TraceID == "" {
		return c
	}
	return &tracedClient{tc: tc, parent: parent}
}

type tracedClient struct {
	tc     TraceClient
	parent obs.Trace
}

// Call implements Client, forwarding under the bound parent trace.
func (t *tracedClient) Call(method string, body []byte) ([]byte, error) {
	return t.tc.CallTrace(t.parent, method, body)
}

// Mux routes methods to handlers. The zero value is not usable; call
// NewMux.
type Mux struct {
	mu       sync.RWMutex
	handlers map[string]Handler
}

// NewMux returns an empty Mux.
func NewMux() *Mux {
	return &Mux{handlers: make(map[string]Handler)}
}

// Handle registers h for method, replacing any existing handler.
func (m *Mux) Handle(method string, h Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers[method] = h
}

// Dispatch runs the handler for method.
func (m *Mux) Dispatch(ctx context.Context, method string, body []byte) ([]byte, error) {
	m.mu.RLock()
	h, ok := m.handlers[method]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownMethod, method)
	}
	return h(ctx, body)
}

// Stats counts traffic through an in-memory Network.
type Stats struct {
	// Messages is the total message count (each call is two: request and
	// response).
	Messages atomic.Uint64
	// RoundTrips is the number of completed calls.
	RoundTrips atomic.Uint64
	// Bytes is the total payload bytes in both directions.
	Bytes atomic.Uint64
}

// Snapshot returns a point-in-time copy of the counters.
func (s *Stats) Snapshot() (messages, roundTrips, bytes uint64) {
	return s.Messages.Load(), s.RoundTrips.Load(), s.Bytes.Load()
}

// Reset zeroes the counters.
func (s *Stats) Reset() {
	s.Messages.Store(0)
	s.RoundTrips.Store(0)
	s.Bytes.Store(0)
}

// Network is an in-memory service fabric. Services register under names;
// clients dial by name. Every call is metered.
type Network struct {
	mu       sync.RWMutex
	services map[string]*Mux
	injector *faultpoint.Injector
	stats    Stats
}

// NewNetwork returns an empty in-memory network.
func NewNetwork() *Network {
	return &Network{services: make(map[string]*Mux)}
}

// SetInjector installs a fault injector on every call through the
// network: drops, duplicates, delays, remote errors, and partitions,
// per-method and seeded (see internal/faultpoint). nil removes
// injection.
func (n *Network) SetInjector(inj *faultpoint.Injector) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.injector = inj
}

// Register exposes mux as a service under name.
func (n *Network) Register(name string, mux *Mux) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.services[name] = mux
}

// Stats exposes the network's counters.
func (n *Network) Stats() *Stats { return &n.stats }

// Dial returns a Client for the named service.
func (n *Network) Dial(name string) (Client, error) {
	n.mu.RLock()
	mux, ok := n.services[name]
	n.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownService, name)
	}
	return &memClient{net: n, mux: mux, service: name}, nil
}

// MustDial is Dial for wiring code where the service is known to exist;
// it panics on unknown services (program construction error, not a
// runtime condition).
func (n *Network) MustDial(name string) Client {
	c, err := n.Dial(name)
	if err != nil {
		panic(err)
	}
	return c
}

type memClient struct {
	net     *Network
	mux     *Mux
	service string
}

// Call implements Client. Each call carries a fresh trace in its
// context so handler-side audit records correlate, mirroring what the
// TCP transport does on the wire (without the metering side effects).
// When an injector is installed, messages can be dropped, duplicated,
// delayed, failed, or partitioned before they reach the handler.
func (c *memClient) Call(method string, body []byte) ([]byte, error) {
	return c.CallTrace(obs.Trace{}, method, body)
}

// CallTrace is Call under an explicit parent trace; the handler-side
// context carries a child of parent, as the TCP transport does on the
// wire. A zero parent behaves like Call.
func (c *memClient) CallTrace(parent obs.Trace, method string, body []byte) ([]byte, error) {
	tr := obs.NewTrace()
	if parent.TraceID != "" {
		tr = parent.Child()
	}
	c.net.mu.RLock()
	inj := c.net.injector
	c.net.mu.RUnlock()
	if inj != nil {
		d := inj.Decide(method)
		if d.Delay > 0 {
			time.Sleep(d.Delay)
		}
		switch d.Action {
		case faultpoint.ActPartition, faultpoint.ActDropRequest:
			// The request never reaches the service.
			return nil, &faultpoint.Error{Action: d.Action, Method: method}
		case faultpoint.ActError:
			return nil, &RemoteError{Method: method, Msg: faultpoint.RemoteErrMsg}
		case faultpoint.ActDropResponse:
			// The handler runs — its side effects happen — but the
			// reply is lost; the caller observes a timeout.
			_, _ = c.dispatch(tr, method, body)
			return nil, &faultpoint.Error{Action: d.Action, Method: method}
		case faultpoint.ActDuplicate:
			// Delivered twice; the caller sees the first delivery's
			// outcome, the second is the network's doing.
			resp, err := c.dispatch(tr, method, body)
			_, _ = c.dispatch(tr, method, body)
			return c.finish(method, resp, err)
		}
	}
	resp, err := c.dispatch(tr, method, body)
	return c.finish(method, resp, err)
}

// dispatch delivers one request to the service, metering the request
// message.
func (c *memClient) dispatch(tr obs.Trace, method string, body []byte) ([]byte, error) {
	c.net.stats.Messages.Add(1)
	c.net.stats.Bytes.Add(uint64(len(body)))
	// Mirror the TCP server's receive side: the handler gets its own
	// span within the caller's trace, parented on the client span.
	ctx := obs.ContextWithTrace(context.Background(), obs.ParseTrace(tr.String()))
	return dispatchSafely(ctx, c.mux, method, body)
}

// finish meters the response leg and converts handler errors into
// RemoteErrors, as the TCP transport does on the wire.
func (c *memClient) finish(method string, resp []byte, err error) ([]byte, error) {
	c.net.stats.Messages.Add(1)
	c.net.stats.Bytes.Add(uint64(len(resp)))
	c.net.stats.RoundTrips.Add(1)
	if err != nil {
		return nil, &RemoteError{Method: method, Msg: err.Error()}
	}
	return resp, nil
}

// encodeRequest/decodeRequest define the on-wire RPC envelope of the
// TCP transport. id is the per-connection request ID that lets the
// multiplexed client match responses (which may arrive out of order)
// back to waiting calls. trace is the obs.Trace wire form
// ("traceID-spanID", possibly empty): the trace context and parent span
// that let the server correlate its span with the caller's.
//
// Both encoders come from the wire pool; the caller must Release the
// returned encoder after the frame has been written.
func encodeRequest(id uint64, method, trace string, body []byte) *wire.Encoder {
	e := wire.GetEncoder(72 + len(trace) + len(body))
	e.Uint64(id)
	e.String(method)
	e.String(trace)
	e.Bytes32(body)
	return e
}

func decodeRequest(b []byte) (id uint64, method, trace string, body []byte, err error) {
	d := wire.NewDecoder(b)
	id = d.Uint64()
	method = d.String()
	trace = d.String()
	body = d.Bytes32()
	if err := d.Finish(); err != nil {
		return 0, "", "", nil, err
	}
	return id, method, trace, body, nil
}

// encodeResponse echoes the request ID ahead of the response payload so
// the client-side demultiplexer can route it without decoding the body.
// The returned encoder is pooled; Release it after the write.
func encodeResponse(id uint64, body []byte, herr error) *wire.Encoder {
	e := wire.GetEncoder(72 + len(body))
	e.Uint64(id)
	if herr != nil {
		e.Bool(true)
		e.String(herr.Error())
		return e
	}
	e.Bool(false)
	e.Bytes32(body)
	return e
}

// splitResponseID peels the request ID off a response frame, returning
// the remainder for decodeResponse in the waiting call's goroutine.
func splitResponseID(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("%w: short response frame", wire.ErrTruncated)
	}
	return binary.BigEndian.Uint64(b[:8]), b[8:], nil
}

func decodeResponse(method string, b []byte) ([]byte, error) {
	d := wire.NewDecoder(b)
	if d.Bool() {
		msg := d.String()
		if err := d.Finish(); err != nil {
			return nil, err
		}
		return nil, &RemoteError{Method: method, Msg: msg}
	}
	body := d.Bytes32()
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return body, nil
}
