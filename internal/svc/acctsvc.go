package svc

import (
	"context"
	"fmt"

	"proxykit/internal/accounting"
	"proxykit/internal/clock"
	"proxykit/internal/kcrypto"
	"proxykit/internal/principal"
	"proxykit/internal/proxy"
	"proxykit/internal/pubkey"
	"proxykit/internal/transport"
	"proxykit/internal/wire"
)

// Accounting RPC methods.
const (
	CreateAccountMethod = "acct.create"
	BalanceMethod       = "acct.balance"
	TransferMethod      = "acct.transfer"
	DepositCheckMethod  = "acct.deposit-check"
	StatementMethod     = "acct.statement"
)

// AcctService mounts an accounting server on the transport layer.
// Bearer checks cannot be deposited over this interface — their proxy
// key must not transit — so wire deposits carry endorsed (delegate)
// checks, which is also the paper's Fig. 5 flow.
type AcctService struct {
	srv    *accounting.Server
	opener *Opener
}

// NewAcctService wraps srv.
func NewAcctService(srv *accounting.Server, resolve func(principal.ID) (kcrypto.Verifier, error), clk clock.Clock) *AcctService {
	return &AcctService{srv: srv, opener: NewOpener(resolve, clk)}
}

// Mux returns the service's transport mux.
func (s *AcctService) Mux() *transport.Mux {
	m := transport.NewMux()
	m.Handle(CreateAccountMethod, s.handleCreate)
	m.Handle(BalanceMethod, s.handleBalance)
	m.Handle(TransferMethod, s.handleTransfer)
	m.Handle(DepositCheckMethod, s.handleDeposit)
	m.Handle(StatementMethod, s.handleStatement)
	return m
}

func (s *AcctService) handleStatement(_ context.Context, raw []byte) ([]byte, error) {
	from, body, err := s.opener.Open(StatementMethod, raw)
	if err != nil {
		return nil, err
	}
	d := wire.NewDecoder(body)
	name := d.String()
	if err := d.Finish(); err != nil {
		return nil, err
	}
	txs, err := s.srv.Statement(name, []principal.ID{from})
	if err != nil {
		return nil, err
	}
	e := wire.NewEncoder(64 * len(txs))
	e.Uint32(uint32(len(txs)))
	for _, tx := range txs {
		e.Time(tx.Time)
		e.Uint8(uint8(tx.Kind))
		e.String(tx.Currency)
		e.Int64(tx.Amount)
		e.String(tx.Counterparty)
		e.String(tx.CheckNumber)
	}
	return e.Bytes(), nil
}

func (s *AcctService) handleCreate(_ context.Context, raw []byte) ([]byte, error) {
	from, body, err := s.opener.Open(CreateAccountMethod, raw)
	if err != nil {
		return nil, err
	}
	d := wire.NewDecoder(body)
	name := d.String()
	if err := d.Finish(); err != nil {
		return nil, err
	}
	if err := s.srv.CreateAccount(name, from); err != nil {
		return nil, err
	}
	return []byte{1}, nil
}

func (s *AcctService) handleBalance(_ context.Context, raw []byte) ([]byte, error) {
	from, body, err := s.opener.Open(BalanceMethod, raw)
	if err != nil {
		return nil, err
	}
	d := wire.NewDecoder(body)
	name := d.String()
	currency := d.String()
	if err := d.Finish(); err != nil {
		return nil, err
	}
	bal, err := s.srv.Balance(name, currency, []principal.ID{from})
	if err != nil {
		return nil, err
	}
	e := wire.NewEncoder(8)
	e.Int64(bal)
	return e.Bytes(), nil
}

func (s *AcctService) handleTransfer(ctx context.Context, raw []byte) ([]byte, error) {
	from, body, err := s.opener.Open(TransferMethod, raw)
	if err != nil {
		return nil, err
	}
	d := wire.NewDecoder(body)
	src := d.String()
	dst := d.String()
	currency := d.String()
	amount := d.Int64()
	if err := d.Finish(); err != nil {
		return nil, err
	}
	if err := s.srv.TransferCtx(ctx, src, dst, currency, amount, []principal.ID{from}); err != nil {
		return nil, err
	}
	return []byte{1}, nil
}

func (s *AcctService) handleDeposit(ctx context.Context, raw []byte) ([]byte, error) {
	from, body, err := s.opener.Open(DepositCheckMethod, raw)
	if err != nil {
		return nil, err
	}
	d := wire.NewDecoder(body)
	c, err := DecodeCheck(d)
	if err != nil {
		return nil, err
	}
	creditAccount := d.String()
	if err := d.Finish(); err != nil {
		return nil, err
	}
	r, err := s.srv.DepositCheckCtx(ctx, c, []principal.ID{from}, creditAccount)
	if err != nil {
		return nil, err
	}
	e := wire.NewEncoder(64)
	e.String(r.Number)
	e.String(r.Currency)
	e.Int64(r.Amount)
	e.Bool(r.Collected)
	e.Uint32(uint32(r.Hops))
	return e.Bytes(), nil
}

// EncodeCheck serializes a check's public parts (metadata and
// certificate chain; never the proxy key).
func EncodeCheck(e *wire.Encoder, c *accounting.Check) {
	e.String(c.Number)
	c.Bank.Encode(e)
	e.String(c.Account)
	e.String(c.Currency)
	e.Int64(c.Amount)
	c.Payee.Encode(e)
	e.Bytes32(c.Proxy.MarshalCerts())
}

// DecodeCheck reverses EncodeCheck: the check's public parts only, so
// a decoded check can be deposited or endorsed but never spent as the
// payee's bearer instrument (the proxy key never travels).
func DecodeCheck(d *wire.Decoder) (*accounting.Check, error) {
	c := &accounting.Check{}
	c.Number = d.String()
	c.Bank = principal.DecodeID(d)
	c.Account = d.String()
	c.Currency = d.String()
	c.Amount = d.Int64()
	c.Payee = principal.DecodeID(d)
	certsRaw := d.Bytes32()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("svc: decode check: %w", err)
	}
	certs, err := proxy.UnmarshalCerts(certsRaw)
	if err != nil {
		return nil, err
	}
	c.Proxy = &proxy.Proxy{Certs: certs}
	return c, nil
}

// AcctClient calls an accounting service on behalf of an identity.
type AcctClient struct {
	client transport.Client
	ident  *pubkey.Identity
	clk    clock.Clock
}

// NewAcctClient wraps a transport client.
func NewAcctClient(c transport.Client, ident *pubkey.Identity, clk clock.Clock) *AcctClient {
	if clk == nil {
		clk = clock.System{}
	}
	return &AcctClient{client: c, ident: ident, clk: clk}
}

func (c *AcctClient) call(method string, body []byte) ([]byte, error) {
	return sealedCall(c.client, c.ident, c.clk, method, body)
}

// CreateAccount creates an account owned by this client.
func (c *AcctClient) CreateAccount(name string) error {
	e := wire.NewEncoder(32)
	e.String(name)
	_, err := c.call(CreateAccountMethod, e.Bytes())
	return err
}

// Balance reads a balance.
func (c *AcctClient) Balance(name, currency string) (int64, error) {
	e := wire.NewEncoder(32)
	e.String(name)
	e.String(currency)
	resp, err := c.call(BalanceMethod, e.Bytes())
	if err != nil {
		return 0, err
	}
	d := wire.NewDecoder(resp)
	bal := d.Int64()
	if err := d.Finish(); err != nil {
		return 0, err
	}
	return bal, nil
}

// Transfer moves funds between local accounts.
func (c *AcctClient) Transfer(from, to, currency string, amount int64) error {
	e := wire.NewEncoder(64)
	e.String(from)
	e.String(to)
	e.String(currency)
	e.Int64(amount)
	_, err := c.call(TransferMethod, e.Bytes())
	return err
}

// Statement fetches an account's transaction history.
func (c *AcctClient) Statement(name string) ([]accounting.Transaction, error) {
	e := wire.NewEncoder(32)
	e.String(name)
	resp, err := c.call(StatementMethod, e.Bytes())
	if err != nil {
		return nil, err
	}
	d := wire.NewDecoder(resp)
	n := d.Uint32()
	out := make([]accounting.Transaction, 0, min(int(n), 1024))
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		out = append(out, accounting.Transaction{
			Time:         d.Time(),
			Kind:         accounting.TxKind(d.Uint8()),
			Currency:     d.String(),
			Amount:       d.Int64(),
			Counterparty: d.String(),
			CheckNumber:  d.String(),
		})
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return out, nil
}

// DepositCheck deposits an endorsed check into creditAccount.
func (c *AcctClient) DepositCheck(check *accounting.Check, creditAccount string) (*accounting.Receipt, error) {
	e := wire.NewEncoder(1024)
	EncodeCheck(e, check)
	e.String(creditAccount)
	resp, err := c.call(DepositCheckMethod, e.Bytes())
	if err != nil {
		return nil, err
	}
	d := wire.NewDecoder(resp)
	r := &accounting.Receipt{}
	r.Number = d.String()
	r.Currency = d.String()
	r.Amount = d.Int64()
	r.Collected = d.Bool()
	r.Hops = int(d.Uint32())
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return r, nil
}
