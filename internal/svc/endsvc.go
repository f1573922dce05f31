package svc

import (
	"context"
	"fmt"
	"sort"

	"proxykit/internal/acl"
	"proxykit/internal/clock"
	"proxykit/internal/endserver"
	"proxykit/internal/kcrypto"
	"proxykit/internal/principal"
	"proxykit/internal/proxy"
	"proxykit/internal/pubkey"
	"proxykit/internal/transport"
	"proxykit/internal/wire"
)

// End-server RPC methods.
const (
	ChallengeMethod = "end.challenge"
	RequestMethod   = "end.request"
	HintsMethod     = "end.hints"
)

// EndService mounts an application end-server on the transport layer.
type EndService struct {
	srv    *endserver.Server
	opener *Opener
}

// NewEndService wraps srv.
func NewEndService(srv *endserver.Server, resolve func(principal.ID) (kcrypto.Verifier, error), clk clock.Clock) *EndService {
	return &EndService{srv: srv, opener: NewOpener(resolve, clk)}
}

// Mux returns the service's transport mux.
func (s *EndService) Mux() *transport.Mux {
	m := transport.NewMux()
	m.Handle(ChallengeMethod, func(context.Context, []byte) ([]byte, error) {
		return s.srv.Challenge()
	})
	m.Handle(RequestMethod, s.handleRequest)
	m.Handle(HintsMethod, s.handleHints)
	return m
}

// handleHints serves message 0 of Fig. 3: which subjects the object's
// ACL names. Unauthenticated — the hint is addressed to prospective
// clients.
func (s *EndService) handleHints(_ context.Context, body []byte) ([]byte, error) {
	d := wire.NewDecoder(body)
	object := d.String()
	if err := d.Finish(); err != nil {
		return nil, err
	}
	subjects := s.srv.Hints(object)
	e := wire.NewEncoder(256)
	e.Uint32(uint32(len(subjects)))
	for _, sub := range subjects {
		sub.Principals.Encode(e)
		e.Uint32(uint32(len(sub.Groups)))
		for _, g := range sub.Groups {
			g.Encode(e)
		}
	}
	return e.Bytes(), nil
}

func (s *EndService) handleRequest(ctx context.Context, raw []byte) ([]byte, error) {
	from, body, err := s.opener.Open(RequestMethod, raw)
	if err != nil {
		return nil, err
	}
	d := wire.NewDecoder(body)
	object := d.String()
	op := d.String()
	challenge := d.Bytes32()
	presRaw := d.BytesSlice()
	nAmt := d.Uint32()
	amounts := make(map[string]int64, min(int(nAmt), 16))
	for i := uint32(0); i < nAmt && d.Err() == nil; i++ {
		cur := d.String()
		amounts[cur] = d.Int64()
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEnvelope, err)
	}
	req := &endserver.Request{
		Object:     object,
		Op:         op,
		Identities: []principal.ID{from},
		Challenge:  challenge,
		Amounts:    amounts,
	}
	for i, pr := range presRaw {
		p, err := proxy.UnmarshalPresentation(pr)
		if err != nil {
			return nil, fmt.Errorf("presentation %d: %w", i, err)
		}
		req.Proxies = append(req.Proxies, p)
	}
	dec, err := s.srv.AuthorizeCtx(ctx, req)
	if err != nil {
		return nil, err
	}
	e := wire.NewEncoder(128)
	dec.Via.Encode(e)
	e.Bool(dec.ViaProxy)
	e.Uint32(uint32(len(dec.Trail)))
	for _, t := range dec.Trail {
		t.Encode(e)
	}
	return e.Bytes(), nil
}

// EndClient calls an end-server on behalf of an identity.
type EndClient struct {
	client transport.Client
	ident  *pubkey.Identity
	clk    clock.Clock
}

// NewEndClient wraps a transport client.
func NewEndClient(c transport.Client, ident *pubkey.Identity, clk clock.Clock) *EndClient {
	if clk == nil {
		clk = clock.System{}
	}
	return &EndClient{client: c, ident: ident, clk: clk}
}

// Challenge fetches a fresh bearer-presentation challenge (one round
// trip).
func (c *EndClient) Challenge() ([]byte, error) {
	return c.client.Call(ChallengeMethod, nil)
}

// Hints asks which subjects can authorize access to object (message 0
// of Fig. 3).
func (c *EndClient) Hints(object string) ([]acl.Subject, error) {
	e := wire.NewEncoder(64)
	e.String(object)
	resp, err := c.client.Call(HintsMethod, e.Bytes())
	if err != nil {
		return nil, err
	}
	d := wire.NewDecoder(resp)
	n := d.Uint32()
	out := make([]acl.Subject, 0, min(int(n), 64))
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		var h acl.Subject
		h.Principals = principal.DecodeCompound(d)
		gn := d.Uint32()
		for j := uint32(0); j < gn && d.Err() == nil; j++ {
			h.Groups = append(h.Groups, principal.DecodeGlobal(d))
		}
		out = append(out, h)
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return out, nil
}

// RequestParams describe one operation request.
type RequestParams struct {
	// Object and Op name the action.
	Object string
	Op     string
	// Challenge covers the bearer proofs in Proxies, if any.
	Challenge []byte
	// Proxies accompany the request.
	Proxies []*proxy.Presentation
	// Amounts is requested resource consumption per currency.
	Amounts map[string]int64
}

// Decision mirrors the server's authorization decision.
type Decision struct {
	// Via is the acting principal.
	Via principal.ID
	// ViaProxy reports proxy-conveyed rights.
	ViaProxy bool
	// Trail is the delegation audit trail.
	Trail []principal.ID
}

// Request performs one authorized operation (one round trip, plus one
// earlier Challenge round trip when presenting bearer proxies).
func (c *EndClient) Request(p RequestParams) (*Decision, error) {
	e := wire.NewEncoder(512)
	e.String(p.Object)
	e.String(p.Op)
	e.Bytes32(p.Challenge)
	pres := make([][]byte, len(p.Proxies))
	for i, pr := range p.Proxies {
		pres[i] = pr.Marshal()
	}
	e.BytesSlice(pres)
	// Encode amounts in sorted currency order: map iteration would make
	// byte-identical requests encode differently run to run.
	e.Uint32(uint32(len(p.Amounts)))
	curs := make([]string, 0, len(p.Amounts))
	for cur := range p.Amounts {
		curs = append(curs, cur)
	}
	sort.Strings(curs)
	for _, cur := range curs {
		e.String(cur)
		e.Int64(p.Amounts[cur])
	}
	resp, err := sealedCall(c.client, c.ident, c.clk, RequestMethod, e.Bytes())
	if err != nil {
		return nil, err
	}
	d := wire.NewDecoder(resp)
	dec := &Decision{}
	dec.Via = principal.DecodeID(d)
	dec.ViaProxy = d.Bool()
	n := d.Uint32()
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		dec.Trail = append(dec.Trail, principal.DecodeID(d))
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return dec, nil
}
