package kerberos

import (
	"bytes"
	"testing"
	"time"

	"proxykit/internal/principal"
	"proxykit/internal/restrict"
)

// FuzzUnmarshalTicket feeds arbitrary bytes to the ticket decoder, which
// parses raw network input (§6.2): it must never panic, and anything it
// accepts must re-marshal to bytes that decode and re-marshal
// identically.
func FuzzUnmarshalTicket(f *testing.F) {
	f.Add((&Ticket{Server: svFile, Sealed: []byte("sealed-ticket-body")}).Marshal())
	f.Add((&Ticket{Server: uAlice}).Marshal())
	f.Add([]byte{})
	f.Add([]byte("garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tk, err := UnmarshalTicket(data)
		if err != nil {
			return
		}
		first := tk.Marshal()
		again, err := UnmarshalTicket(first)
		if err != nil {
			t.Fatalf("accepted ticket failed round trip: %v", err)
		}
		if !bytes.Equal(again.Marshal(), first) {
			t.Fatal("ticket re-marshal is not stable")
		}
	})
}

// FuzzUnmarshalAuthenticator covers the authenticator decoder. Sealing
// does not make its input trusted: any client holding the session key
// chooses the plaintext, authorization-data included.
func FuzzUnmarshalAuthenticator(f *testing.F) {
	a := &Authenticator{
		Client:    uAlice,
		Timestamp: time.Unix(5_000_000, 0),
		Subkey:    bytes.Repeat([]byte{7}, 32),
		AuthzData: restrict.Set{
			restrict.Quota{Currency: "dollars", Limit: 5},
			restrict.Grantee{Principals: []principal.ID{uBob}},
		},
		Checksum: []byte("checksum"),
		Nonce:    []byte("nonce"),
	}
	f.Add(a.marshal())
	f.Add((&Authenticator{Client: uBob}).marshal())
	f.Add([]byte{})
	f.Add([]byte("krb-auth-v1"))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := unmarshalAuthenticator(data)
		if err != nil {
			return
		}
		first := got.marshal()
		again, err := unmarshalAuthenticator(first)
		if err != nil {
			t.Fatalf("accepted authenticator failed round trip: %v", err)
		}
		if !bytes.Equal(again.marshal(), first) {
			t.Fatal("authenticator re-marshal is not stable")
		}
	})
}
