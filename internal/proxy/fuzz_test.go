package proxy

import (
	"testing"
	"time"

	"proxykit/internal/kcrypto"
	"proxykit/internal/principal"
	"proxykit/internal/restrict"
	"proxykit/internal/wire"
)

// FuzzUnmarshalCertificate feeds arbitrary bytes to the per-link
// certificate decoder UnmarshalCerts runs: it must never panic, and
// anything it accepts must re-encode and decode again.
func FuzzUnmarshalCertificate(f *testing.F) {
	kp, err := kcrypto.NewKeyPair()
	if err != nil {
		f.Fatal(err)
	}
	p, err := Grant(GrantParams{
		Grantor:       principal.New("alice", "R"),
		GrantorSigner: kp,
		Restrictions: restrict.Set{
			restrict.Quota{Currency: "c", Limit: 5},
			restrict.Grantee{Principals: []principal.ID{principal.New("bob", "R")}},
		},
		Lifetime: time.Hour,
		Mode:     ModePublicKey,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(p.Certs[0].Marshal())
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02})

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := decodeCertificate(wire.NewDecoder(data))
		if err != nil {
			return
		}
		again, err := decodeCertificate(wire.NewDecoder(c.Marshal()))
		if err != nil {
			t.Fatalf("accepted certificate failed round trip: %v", err)
		}
		if again.Grantor != c.Grantor {
			t.Fatal("round trip changed grantor")
		}
	})
}

// FuzzUnmarshalPresentation covers the presentation decoder.
func FuzzUnmarshalPresentation(f *testing.F) {
	kp, err := kcrypto.NewKeyPair()
	if err != nil {
		f.Fatal(err)
	}
	p, err := Grant(GrantParams{
		Grantor:       principal.New("alice", "R"),
		GrantorSigner: kp,
		Lifetime:      time.Hour,
		Mode:          ModePublicKey,
	})
	if err != nil {
		f.Fatal(err)
	}
	ch, _ := NewChallenge()
	pr, err := p.Present(ch, principal.New("sv", "R"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pr.Marshal())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalPresentation(data)
		if err != nil {
			return
		}
		if _, err := UnmarshalPresentation(got.Marshal()); err != nil {
			t.Fatalf("accepted presentation failed round trip: %v", err)
		}
	})
}
