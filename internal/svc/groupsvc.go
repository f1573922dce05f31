package svc

import (
	"context"
	"fmt"
	"time"

	"proxykit/internal/clock"
	"proxykit/internal/group"
	"proxykit/internal/kcrypto"
	"proxykit/internal/principal"
	"proxykit/internal/proxy"
	"proxykit/internal/pubkey"
	"proxykit/internal/transport"
	"proxykit/internal/wire"
)

// GroupGrantMethod is the group server's RPC method (§3.3).
const GroupGrantMethod = "group.grant"

// GroupService mounts a group server on the transport layer.
type GroupService struct {
	srv    *group.Server
	opener *Opener
	env    *proxy.VerifyEnv
	clk    clock.Clock
}

// NewGroupService wraps srv.
func NewGroupService(srv *group.Server, resolve func(principal.ID) (kcrypto.Verifier, error), clk clock.Clock) *GroupService {
	if clk == nil {
		clk = clock.System{}
	}
	return &GroupService{
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
func (s *GroupService) SetChainCache(cc *proxy.ChainCache) {
	s.env.Cache = cc
}

// Mux returns the service's transport mux.
func (s *GroupService) Mux() *transport.Mux {
	m := transport.NewMux()
	m.Handle(GroupGrantMethod, s.handleGrant)
	return m
}

func (s *GroupService) handleGrant(ctx context.Context, raw []byte) ([]byte, error) {
	from, body, err := s.opener.Open(GroupGrantMethod, raw)
	if err != nil {
		return nil, err
	}
	d := wire.NewDecoder(body)
	ephPub := d.Bytes32()
	names := d.StringSlice()
	lifetime := time.Duration(d.Int64())
	delegate := d.Bool()
	presRaw := d.BytesSlice()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEnvelope, err)
	}

	verified, propagated, err := verifyGroupProxies(s.env, presRaw, from, s.clk)
	if err != nil {
		return nil, err
	}
	p, err := s.srv.GrantCtx(ctx, &group.GrantRequest{
		Client:         from,
		Groups:         names,
		VerifiedGroups: verified,
		Lifetime:       lifetime,
		Delegate:       delegate,
		Propagated:     propagated,
	})
	if err != nil {
		return nil, err
	}
	return sealReply(p, ephPub)
}

// GroupClient calls a group service on behalf of an identity.
type GroupClient struct {
	client transport.Client
	ident  *pubkey.Identity
	clk    clock.Clock
}

// NewGroupClient wraps a transport client.
func NewGroupClient(c transport.Client, ident *pubkey.Identity, clk clock.Clock) *GroupClient {
	if clk == nil {
		clk = clock.System{}
	}
	return &GroupClient{client: c, ident: ident, clk: clk}
}

// GroupGrantParams are the client-side request parameters.
type GroupGrantParams struct {
	// Groups are the local group names to assert.
	Groups []string
	// Lifetime of the proxy.
	Lifetime time.Duration
	// Delegate restricts the proxy to this client's identity.
	Delegate bool
	// ForeignProxies prove membership in nested foreign groups.
	ForeignProxies []*proxy.Presentation
}

// Grant requests a group-membership proxy.
func (c *GroupClient) Grant(p GroupGrantParams) (*proxy.Proxy, error) {
	eph, err := kcrypto.NewECDHKey()
	if err != nil {
		return nil, err
	}
	e := wire.NewEncoder(256)
	e.Bytes32(eph.PublicBytes())
	e.StringSlice(p.Groups)
	e.Int64(int64(p.Lifetime))
	e.Bool(p.Delegate)
	pres := make([][]byte, len(p.ForeignProxies))
	for i, fp := range p.ForeignProxies {
		pres[i] = fp.Marshal()
	}
	e.BytesSlice(pres)

	resp, err := sealedCall(c.client, c.ident, c.clk, GroupGrantMethod, e.Bytes())
	if err != nil {
		return nil, err
	}
	return openReply(resp, eph)
}
