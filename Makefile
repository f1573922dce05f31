# proxykit — common development targets.

GO ?= go

.PHONY: all build vet test race check perfbench-check audit-verify gateway-smoke repl-smoke soak bench bench-smoke crash experiments examples cover fuzz clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

test:
	$(GO) test ./...

# The packages with concurrent hot paths (atomic metrics, TCP RPC,
# check clearing, retrying clients, the chaos suite) run under the race
# detector; `make check` includes this, the full suite does not need it
# on every run.
race:
	$(GO) test -race ./internal/transport/... ./internal/obs/... ./internal/accounting/... \
		./internal/chaos/... ./internal/faultpoint/... ./internal/svc/... \
		./internal/endserver/... ./internal/proxy/... ./internal/group/... \
		./internal/ledger/... ./internal/gateway/... \
		./internal/soak/... ./internal/repl/... ./internal/durable/... \
		./internal/daemon/...

# perfbench/ is its own module (replace proxykit => ../), so tier-1
# `go test ./...` does not compile it. Vet and test it here (about 20 s)
# so a change that breaks the API the standing benchmark builds against
# fails in `make check`, not in the benchmark run.
perfbench-check:
	$(GO) vet -C perfbench ./...
	$(GO) test -C perfbench ./...

check: build vet test race perfbench-check

# Round-trip an audit journal through the real `proxyctl audit verify`
# binary: a clean chain exits 0, a single flipped byte exits non-zero.
audit-verify:
	$(GO) test ./internal/integration/ -run TestAuditVerifyCLI -v

# Stand up the full edge path — gatewayd core against live TCP daemons —
# drive every HTTP API route (authorize, transfer, balance, check
# write/deposit, introspection), and verify the audit hash chains of
# the gateway, the end-server, and the bank afterwards.
gateway-smoke:
	$(GO) test ./internal/integration/ -run 'TestGateway(Smoke|EndToEnd|Impersonation|ErrorMapping|DocCatalogue)' -v -count=1

# Fast replication/failover subset: WAL shipping to a hot standby,
# semi-sync commit acknowledgment, snapshot catch-up, fenced promotion,
# and the end-to-end TCP failover (standby reads, promote via RPC,
# deposed primary refused) — the quick proof that -standby/-replicate-from
# and `proxyctl promote` still work. The kill-the-primary chaos test and
# the soak storm's promote-under-load audit are the heavier layers.
repl-smoke:
	$(GO) test ./internal/repl/ -run 'TestStandbyTailsPrimary|TestSemiSync|TestCatchUpViaSnapshot|TestPromote' -v -count=1
	$(GO) test ./internal/integration/ -run TestReplFailoverOverTCP -v -count=1

# Kill-and-recover chaos suite: SIGKILL a bank at a fault-injected WAL
# append boundary, replay the ledger, and audit the recovered books
# (internal/chaos/crash_recovery_test.go), plus the lossless-recovery
# property tests over snapshot + WAL.
crash:
	$(GO) test ./internal/chaos/ -run TestCrashRecovery -v -count=1
	$(GO) test ./internal/accounting/ -run 'TestRecovery' -v -count=1

# Continuous mixed-scenario soak storm (internal/soak): every workload
# concurrently against a fresh multi-realm topology, fault injection on
# the clearing hop, SIGKILL crash/recovery of the child-process bank
# with a hot standby promoted and audited under load on every crash
# cycle, and an always-on verifier asserting conservation, exactly-once
# clearing, audit-chain integrity, and trace completeness. On a
# violation the run fails with the seed and a reproduction command.
# Override: make soak SOAK_TIME=10m SOAK_SEED=42
SOAK_TIME ?= 60s
SOAK_SEED ?= 1
# go test's own watchdog; 0 disables it so multi-hour soaks can run.
SOAK_TIMEOUT ?= 0

soak:
	$(GO) test ./internal/soak/ -run TestSoakStorm -v -count=1 \
		-timeout $(SOAK_TIMEOUT) -soak.time=$(SOAK_TIME) -soak.seed=$(SOAK_SEED)

# Microbenchmarks: the timed kernels behind the paper-figure
# experiments E1–E11 (root bench_test.go, BenchmarkE<n>*) plus the TCP
# transport benchmarks. They time pieces in isolation; `bash
# perfbench/run.sh` is the only end-to-end performance number.
bench:
	$(GO) test -bench=. -benchmem . ./internal/transport/

# One iteration of every benchmark — a CI smoke test that the
# benchmarks still compile and run, not a measurement.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run '^$$' . ./internal/transport/ ./internal/accounting/ ./internal/ledger/

# The paper-figure experiments E1–E11 as shaped result tables (message
# counts, modeled latencies, baseline comparisons). Not a performance
# measurement; `bash perfbench/run.sh` is the only end-to-end number.
experiments:
	$(GO) run ./cmd/benchproxy

examples:
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d || exit 1; \
		echo; \
	done

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Each fuzzer runs for a short fixed budget (override with
# FUZZTIME=5m make fuzz for a longer local session).
FUZZTIME ?= 30s

fuzz:
	$(GO) test -fuzz=FuzzUnmarshal -fuzztime=$(FUZZTIME) ./internal/restrict/
	$(GO) test -fuzz=FuzzUnmarshalCertificate -fuzztime=$(FUZZTIME) ./internal/proxy/
	$(GO) test -fuzz=FuzzUnmarshalPresentation -fuzztime=$(FUZZTIME) ./internal/proxy/
	$(GO) test -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz=FuzzReadFrame -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz=FuzzVerifyFile -fuzztime=$(FUZZTIME) ./internal/audit/
	$(GO) test -fuzz=FuzzReplayJournal -fuzztime=$(FUZZTIME) ./internal/ledger/

clean:
	rm -f cover.out test_output.txt bench_output.txt
