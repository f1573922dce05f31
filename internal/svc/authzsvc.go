package svc

import (
	"context"
	"fmt"
	"time"

	"proxykit/internal/authz"
	"proxykit/internal/clock"
	"proxykit/internal/kcrypto"
	"proxykit/internal/principal"
	"proxykit/internal/proxy"
	"proxykit/internal/pubkey"
	"proxykit/internal/restrict"
	"proxykit/internal/transport"
	"proxykit/internal/wire"
)

// GrantMethod is the authorization server's RPC method (Fig. 3,
// messages 1 and 2).
const GrantMethod = "authz.grant"

// AuthzService mounts an authorization server on the transport layer.
type AuthzService struct {
	srv    *authz.Server
	opener *Opener
	env    *proxy.VerifyEnv
	clk    clock.Clock
}

// NewAuthzService wraps srv. resolve verifies request envelopes and
// presented group proxies.
func NewAuthzService(srv *authz.Server, resolve func(principal.ID) (kcrypto.Verifier, error), clk clock.Clock) *AuthzService {
	if clk == nil {
		clk = clock.System{}
	}
	return &AuthzService{
		srv:    srv,
		opener: NewOpener(resolve, clk),
		env: &proxy.VerifyEnv{
			Server:          srv.ID,
			Clock:           clk,
			ResolveIdentity: resolve,
		},
		clk: clk,
	}
}

// SetChainCache installs a verified-chain cache for the group proxies
// presented with grant requests (see proxy.ChainCache). Call during
// setup, before the service starts taking requests.
func (s *AuthzService) SetChainCache(cc *proxy.ChainCache) {
	s.env.Cache = cc
}

// Mux returns the service's transport mux.
func (s *AuthzService) Mux() *transport.Mux {
	m := transport.NewMux()
	m.Handle(GrantMethod, s.handleGrant)
	return m
}

func (s *AuthzService) handleGrant(ctx context.Context, raw []byte) ([]byte, error) {
	from, body, err := s.opener.Open(GrantMethod, raw)
	if err != nil {
		return nil, err
	}
	d := wire.NewDecoder(body)
	ephPub := d.Bytes32()
	endServer := principal.DecodeID(d)
	nObjs := d.Uint32()
	objs := make([]authz.RequestedObject, 0, min(int(nObjs), 64))
	for i := uint32(0); i < nObjs && d.Err() == nil; i++ {
		objs = append(objs, authz.RequestedObject{Object: d.String(), Ops: d.StringSlice()})
	}
	lifetime := time.Duration(d.Int64())
	delegate := d.Bool()
	presRaw := d.BytesSlice()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEnvelope, err)
	}

	groups, propagated, err := verifyGroupProxies(s.env, presRaw, from, s.clk)
	if err != nil {
		return nil, err
	}
	p, err := s.srv.GrantCtx(ctx, &authz.GrantRequest{
		Client:     from,
		EndServer:  endServer,
		Objects:    objs,
		Lifetime:   lifetime,
		Delegate:   delegate,
		Groups:     groups,
		Propagated: propagated,
	})
	if err != nil {
		return nil, err
	}
	return sealReply(p, ephPub)
}

// verifyGroupProxies validates delegate group-proxy presentations
// accompanying a service request and returns the asserted memberships
// plus the restrictions to propagate (§7.9). Bearer presentations are
// rejected — services accept delegate group proxies so the envelope
// identity anchors them.
func verifyGroupProxies(env *proxy.VerifyEnv, presRaw [][]byte, from principal.ID, clk clock.Clock) (map[principal.Global]bool, restrict.Set, error) {
	if len(presRaw) == 0 {
		return nil, nil, nil
	}
	groups := make(map[principal.Global]bool)
	var propagated restrict.Set
	for i, raw := range presRaw {
		pr, err := proxy.UnmarshalPresentation(raw)
		if err != nil {
			return nil, nil, fmt.Errorf("group proxy %d: %w", i, err)
		}
		if pr.Proof != nil {
			return nil, nil, fmt.Errorf("group proxy %d: bearer presentation not accepted by services", i)
		}
		v, err := env.VerifyPresentation(pr, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("group proxy %d: %w", i, err)
		}
		// Collect the groups this proxy may assert and test each.
		for _, r := range v.Restrictions {
			gm, ok := r.(restrict.GroupMembership)
			if !ok {
				continue
			}
			for _, g := range gm.Groups {
				if g.Server != v.Grantor {
					continue
				}
				ctx := &restrict.Context{
					Server:           env.Server,
					ClientIdentities: []principal.ID{from},
					AssertedGroups:   []principal.Global{g},
					Now:              clk.Now(),
				}
				if err := v.Authorize(ctx); err == nil {
					groups[g] = true
				}
			}
		}
		propagated = propagated.Merge(v.Restrictions)
	}
	return groups, propagated, nil
}

// sealReply performs the service side of the ephemeral key agreement
// and seals the granted proxy toward the requester.
func sealReply(p *proxy.Proxy, clientEphPub []byte) ([]byte, error) {
	eph, err := kcrypto.NewECDHKey()
	if err != nil {
		return nil, err
	}
	shared, err := eph.SharedKey(clientEphPub)
	if err != nil {
		return nil, err
	}
	sealed, err := sealProxy(p, shared)
	if err != nil {
		return nil, err
	}
	e := wire.NewEncoder(256 + len(sealed))
	e.Bytes32(eph.PublicBytes())
	e.Bytes32(sealed)
	return e.Bytes(), nil
}

// openReply unwraps a sealed proxy reply with the client's ephemeral
// key.
func openReply(raw []byte, eph *kcrypto.ECDHKey) (*proxy.Proxy, error) {
	d := wire.NewDecoder(raw)
	serverPub := d.Bytes32()
	sealed := d.Bytes32()
	if err := d.Finish(); err != nil {
		return nil, err
	}
	shared, err := eph.SharedKey(serverPub)
	if err != nil {
		return nil, err
	}
	return openProxy(sealed, shared)
}

// AuthzClient calls an authorization service on behalf of an identity.
type AuthzClient struct {
	client transport.Client
	ident  *pubkey.Identity
	clk    clock.Clock
}

// NewAuthzClient wraps a transport client.
func NewAuthzClient(c transport.Client, ident *pubkey.Identity, clk clock.Clock) *AuthzClient {
	if clk == nil {
		clk = clock.System{}
	}
	return &AuthzClient{client: c, ident: ident, clk: clk}
}

// GrantParams are the client-side request parameters.
type GrantParams struct {
	// EndServer the proxy should target.
	EndServer principal.ID
	// Objects requested; empty asks for everything allowed.
	Objects []authz.RequestedObject
	// Lifetime of the proxy.
	Lifetime time.Duration
	// Delegate restricts the proxy to this client's identity.
	Delegate bool
	// GroupProxies are delegate presentations proving memberships.
	GroupProxies []*proxy.Presentation
}

// Grant requests an authorization proxy (the full Fig. 3 exchange: one
// round trip, proxy key protected in transit).
func (c *AuthzClient) Grant(p GrantParams) (*proxy.Proxy, error) {
	eph, err := kcrypto.NewECDHKey()
	if err != nil {
		return nil, err
	}
	e := wire.NewEncoder(512)
	e.Bytes32(eph.PublicBytes())
	p.EndServer.Encode(e)
	e.Uint32(uint32(len(p.Objects)))
	for _, o := range p.Objects {
		e.String(o.Object)
		e.StringSlice(o.Ops)
	}
	e.Int64(int64(p.Lifetime))
	e.Bool(p.Delegate)
	pres := make([][]byte, len(p.GroupProxies))
	for i, gp := range p.GroupProxies {
		pres[i] = gp.Marshal()
	}
	e.BytesSlice(pres)

	resp, err := sealedCall(c.client, c.ident, c.clk, GrantMethod, e.Bytes())
	if err != nil {
		return nil, err
	}
	return openReply(resp, eph)
}
