package accounting

import (
	"testing"
	"time"

	"proxykit/internal/principal"
)

// TestHoldSweeper: a sweep leaves a live certified-check hold alone and
// returns an expired one without any deposit touching the account.
func TestHoldSweeper(t *testing.T) {
	w := newWorld(t)
	c := w.carolCheck(300)
	if _, err := w.bank2.Certify("carol", []principal.ID{carol}, c); err != nil {
		t.Fatal(err)
	}
	if got := w.balance(w.bank2, "carol", carol); got != 700 {
		t.Fatalf("after hold = %d", got)
	}

	if n := w.bank2.ReleaseExpiredHolds(); n != 0 {
		t.Fatalf("sweep released %d live holds", n)
	}
	if got := w.balance(w.bank2, "carol", carol); got != 700 {
		t.Fatalf("sweep released a live hold: carol = %d", got)
	}

	// Expire the hold (check lifetime is 24h).
	w.clk.Advance(25 * time.Hour)
	if n := w.bank2.ReleaseExpiredHolds(); n != 1 {
		t.Fatalf("sweep released %d expired holds, want 1", n)
	}
	if got := w.balance(w.bank2, "carol", carol); got != 1000 {
		t.Fatalf("expired hold not returned: carol = %d", got)
	}
}
