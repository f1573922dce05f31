package soak

import (
	"math/rand"
	"sync"
	"testing"
)

// TestRunSeededDeterminism: a fixed seed pins the whole op schedule, so
// two fresh topologies driven by it end in identical balance state even
// though the ops run concurrently (transfers and deposits move fixed
// amounts, so the final balances depend only on the drawn schedule, not
// on execution interleaving).
func TestRunSeededDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("topology runs are not short")
	}
	const principals, ops, workers = 4, 300, 8
	run := func() string {
		t.Helper()
		topo, err := newTopology(principals, 11)
		if err != nil {
			t.Fatal(err)
		}
		defer topo.Close()
		actors := []struct {
			name string
			do   func(p int) error
		}{
			{"authorize", topo.Authorize},
			{"transfer", func(p int) error { return topo.Transfer(p, 1) }},
			{"deposit", func(p int) error { return topo.Deposit(p, 1) }},
			{"gateway", topo.Gateway},
		}
		rng := rand.New(rand.NewSource(11))
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for i := 0; i < ops; i++ {
			a, p := actors[rng.Intn(len(actors))], rng.Intn(principals)
			sem <- struct{}{}
			wg.Add(1)
			go func() {
				defer func() { <-sem; wg.Done() }()
				// Determinism only holds if every op applied its state change.
				if err := a.do(p); err != nil {
					t.Errorf("%s as p%d: %v", a.name, p, err)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		return topo.StateDigest()
	}
	if dig1, dig2 := run(), run(); dig1 != dig2 {
		t.Errorf("seeded runs left different topology state:\n  %s\n  %s", dig1, dig2)
	}
}
