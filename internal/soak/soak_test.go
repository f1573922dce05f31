package soak

import (
	"flag"
	"os"
	"strings"
	"testing"
	"time"
)

var (
	soakTime = flag.Duration("soak.time", 6*time.Second, "TestSoakStorm duration")
	soakSeed = flag.Int64("soak.seed", 1, "TestSoakStorm seed")
)

// TestMain lets a re-exec'd copy of this binary become the soak child
// bank instead of running the test suite.
func TestMain(m *testing.M) {
	maybeRunChild()
	os.Exit(m.Run())
}

// TestSoakStorm is the full storm: every scenario concurrently, fault
// injection on the clearing hop, SIGKILL crash/recovery of the child
// bank, and the always-on verifier. `make soak` runs this with
// SOAK_TIME/SOAK_SEED.
func TestSoakStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process soak storm in -short mode")
	}
	rep, err := Run(Config{
		Seed:     *soakSeed,
		Duration: *soakTime,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.VerifyPasses < 2 {
		t.Errorf("verifier ran %d clean passes, want >= 2", rep.VerifyPasses)
	}
	if rep.Crashes < 1 {
		t.Errorf("child bank crashed %d times, want >= 1", rep.Crashes)
	}
	if rep.Recoveries != rep.Crashes {
		t.Errorf("crashes=%d recoveries=%d, want equal", rep.Crashes, rep.Recoveries)
	}
	if rep.Failovers != rep.Crashes {
		t.Errorf("failovers=%d crashes=%d, want a promote-under-load audit per crash cycle", rep.Failovers, rep.Crashes)
	}
	for _, name := range []string{
		"authorize", "transfer", "deposit", "clearing", "certified",
		"gateway", "login", "churn", "childbank",
	} {
		if rep.Ops[name] == 0 {
			t.Errorf("op %q never completed successfully (errors: %d)", name, rep.Errors[name])
		}
	}
	t.Logf("storm: %d ops, %d verify passes, %d crashes, %d downtime errors",
		len(rep.OpLog), rep.VerifyPasses, rep.Crashes, rep.DowntimeErrors)
}

// TestSoakCatchesDoubleCredit proves the verifier is live: money minted
// outside provisioning must be flagged as a conservation break within
// one verification pass.
func TestSoakCatchesDoubleCredit(t *testing.T) {
	if testing.Short() {
		t.Skip("soak run in -short mode")
	}
	rep, err := Run(Config{
		Seed:               7,
		MaxOps:             260,
		Workers:            4,
		Principals:         4,
		VerifyInterval:     200 * time.Millisecond,
		NoChild:            true,
		InjectDoubleCredit: true,
		Logf:               t.Logf,
	})
	if err == nil {
		t.Fatalf("verifier missed the injected double credit (%d passes)", rep.VerifyPasses)
	}
	if !strings.Contains(err.Error(), "conservation") {
		t.Fatalf("violation is not a conservation break: %v", err)
	}
	// An op-bounded, child-less run is not what `make soak` runs, so
	// the reproduction names its Config instead.
	if !strings.Contains(err.Error(), "reproduce:") || !strings.Contains(err.Error(), "MaxOps: 260") {
		t.Errorf("violation lacks a reproduction naming MaxOps: 260: %v", err)
	}
	if strings.Contains(err.Error(), "SOAK_TIME=0s") {
		t.Errorf("violation reproduces with a zero-duration make soak: %v", err)
	}
}

// TestSoakSeedReproducesSchedule: the same seed and op count draw the
// same schedule, independent of execution interleaving.
func TestSoakSeedReproducesSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("soak run in -short mode")
	}
	run := func() []string {
		t.Helper()
		rep, err := Run(Config{
			Seed:       99,
			MaxOps:     200,
			Workers:    4,
			Principals: 4,
			NoChild:    true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.OpLog
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("op logs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}
