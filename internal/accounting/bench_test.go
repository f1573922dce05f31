package accounting

import (
	"testing"

	"proxykit/internal/ledger"
	"proxykit/internal/principal"
	"proxykit/internal/pubkey"
)

// benchBank builds one bank with two funded accounts; mode nil runs
// without a ledger, otherwise a fresh WAL directory is attached.
func benchBank(b *testing.B, mode *ledger.FsyncMode) (*Server, []principal.ID) {
	b.Helper()
	alice := principal.New("alice", "BENCH.ORG")
	ident, err := pubkey.NewIdentity(principal.New("bank", "BENCH.ORG"))
	if err != nil {
		b.Fatal(err)
	}
	bank := NewServer(ident, nil, nil)
	if mode != nil {
		if _, err := bank.OpenLedger(ledger.Options{Dir: b.TempDir(), Fsync: *mode}); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = bank.CloseLedger() })
	}
	for _, acct := range []string{"a", "b"} {
		if err := bank.CreateAccount(acct, alice); err != nil {
			b.Fatal(err)
		}
		if err := bank.Mint(acct, "dollars", int64(b.N)+1); err != nil {
			b.Fatal(err)
		}
	}
	return bank, []principal.ID{alice}
}

func benchTransfer(b *testing.B, mode *ledger.FsyncMode) {
	bank, who := benchBank(b, mode)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from, to := "a", "b"
		if i%2 == 1 {
			from, to = to, from
		}
		if err := bank.Transfer(from, to, "dollars", 1, who); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransferInMemory is the ledger-less baseline the two WAL
// benchmarks below are read against: the gap is what journaling a
// transfer costs, buffered (WALOff) or with one fsync each (WALAlways).
func BenchmarkTransferInMemory(b *testing.B) { benchTransfer(b, nil) }

// BenchmarkTransferWALOff is the budgeted hot path: buffered WAL
// appends must stay within 2x of the in-memory baseline.
func BenchmarkTransferWALOff(b *testing.B) {
	mode := ledger.FsyncOff
	benchTransfer(b, &mode)
}

// BenchmarkTransferWALAlways pays one fsync per transfer.
func BenchmarkTransferWALAlways(b *testing.B) {
	mode := ledger.FsyncAlways
	benchTransfer(b, &mode)
}
