package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"proxykit/internal/accounting"
	"proxykit/internal/endserver"
	"proxykit/internal/ledger"
	"proxykit/internal/principal"
	"proxykit/internal/proxy"
	"proxykit/internal/svc"
)

// The traced pass. After the timed segments, on the same topology, the
// workload's op is executed at concurrency 1 at successively deeper
// public entry points — the rungs of a ladder. Every call is recorded as
// an in-memory span and written out when the pass ends; a layer's self
// time is its rung's median minus the next rung's. All spans come from
// this package, around calls into the program's layers; none are added
// inside the program.

// sessionSpan is the top span of the session-cold op; the three calls
// inside it are recorded as its children.
const sessionSpan = "session"

type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Op      int    `json:"op"`
	StartNS int64  `json:"start_ns"` // since the pass began
	EndNS   int64  `json:"end_ns"`
}

// spanLog collects spans in memory; a nil log records nothing, which is
// how the timed segments run with tracing off.
type spanLog struct {
	t0    time.Time
	op    int // the request being executed; spans of one request share it
	spans []span
}

func (l *spanLog) record(name, parent string, start, end time.Time) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{
		Name: name, Parent: parent, Op: l.op,
		StartNS: start.Sub(l.t0).Nanoseconds(), EndNS: end.Sub(l.t0).Nanoseconds(),
	})
}

// durations returns the µs durations of every span called name.
func (l *spanLog) durations(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e3)
		}
	}
	return out
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rung is one measured entry point of the ladder.
type rung struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	// Side rungs are measured beside the chain (a layer in isolation);
	// they take no part in the self-time subtraction.
	Side     bool    `json:"side,omitempty"`
	N        int     `json:"n"`
	MedianUS float64 `json:"median_us"`
	MeanUS   float64 `json:"mean_us"`
	// SelfUS is this rung's median minus the medians of the rungs it
	// directly contains.
	SelfUS float64 `json:"self_us"`
	// Program names the program's own histogram for this entry point;
	// ResidualUS is the rung's mean minus that histogram's mean over the
	// same interval — what the program's figure does not see.
	Program       string  `json:"program,omitempty"`
	ProgramMeanUS float64 `json:"program_mean_us,omitempty"`
	ResidualUS    float64 `json:"residual_us,omitempty"`
}

// rungSpec says how to measure one rung.
type rungSpec struct {
	name, parent string
	side         bool
	// metric/label name the program's own latency histogram for this
	// entry point, read over the interval of the rung called during
	// ("" means this rung's own interval).
	metric, label, during string
	// fn performs one call; spans is where an op that makes several
	// calls records them as children.
	fn func(spans *spanLog) error
}

func summarize(name, parent string, side bool, us []float64) (rung, error) {
	if len(us) == 0 {
		return rung{}, fmt.Errorf("rung %s: no samples", name)
	}
	sorted := append([]float64(nil), us...)
	sort.Float64s(sorted)
	median, _ := quantile(sorted, 0.5, 0)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	return rung{Name: name, Parent: parent, Side: side, N: len(us), MedianUS: median, MeanUS: sum / float64(len(us))}, nil
}

// call performs one timed call of spec.fn, recording its span.
func call(spans *spanLog, spec rungSpec, op int) (float64, error) {
	if spans != nil {
		spans.op = op
	}
	start := time.Now()
	if err := spec.fn(spans); err != nil {
		return 0, fmt.Errorf("rung %s: %w", spec.name, err)
	}
	end := time.Now()
	spans.record(spec.name, spec.parent, start, end)
	return micros(end.Sub(start)), nil
}

// measure calls spec.fn back to back for budget, one span per call. With
// alternate set, every other call runs with tracing off and is kept
// apart: untracedUS is those calls' median, so that drift over the pass
// cancels out of the tracing overhead.
func measure(spans *spanLog, spec rungSpec, budget time.Duration, alternate bool) (r rung, d counterDelta, untracedUS float64, err error) {
	if d.before, err = readCounters(); err != nil {
		return r, d, 0, err
	}
	var traced, untraced []float64
	deadline := time.Now().Add(budget)
	for op := 0; time.Now().Before(deadline); op++ {
		if alternate {
			us, err := call(nil, spec, op)
			if err != nil {
				return r, d, 0, err
			}
			untraced = append(untraced, us)
		}
		us, err := call(spans, spec, op)
		if err != nil {
			return r, d, 0, err
		}
		traced = append(traced, us)
	}
	if d.after, err = readCounters(); err != nil {
		return r, d, 0, err
	}
	if alternate {
		u, err := summarize(spec.name, "", false, untraced)
		if err != nil {
			return r, d, 0, err
		}
		untracedUS = u.MedianUS
	}
	r, err = summarize(spec.name, spec.parent, spec.side, traced)
	return r, d, untracedUS, err
}

// ladder is the outcome of the traced pass.
type ladder struct {
	Rungs []rung `json:"rungs"`
	// SelfSumUS is the sum of the chain's self times; TopUS is the top
	// rung's median. They agree by construction when every rung nests in
	// the one above; the gap is what the nesting assumption misses.
	SelfSumUS float64 `json:"self_sum_us"`
	TopUS     float64 `json:"top_us"`
	// TraceOverheadRatio is the top rung's median with span recording
	// over its median without, both at concurrency 1, calls alternating.
	TraceOverheadRatio float64 `json:"trace_overhead_ratio"`
	TraceFile          string  `json:"trace_file"`
}

func (l *ladder) rung(name string) float64 {
	for _, r := range l.Rungs {
		if r.Name == name {
			return r.MedianUS
		}
	}
	return 0
}

// runLadder executes the traced pass for w on t within budget and writes
// the spans to traceFile.
func runLadder(t *topology, w *workload, lc *client, budget time.Duration, traceFile string) (*ladder, error) {
	specs, cleanup, err := ladderSpecs(t, w, lc)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	// One share of the budget per rung, and a second for the top rung,
	// whose calls alternate between tracing on and off.
	share := budget / time.Duration(len(specs)+1)
	spans := &spanLog{t0: time.Now()}
	out := &ladder{TraceFile: traceFile}
	deltas := map[string]counterDelta{}
	var untracedUS float64
	for i, spec := range specs {
		top := i == 0
		rungBudget := share
		if top {
			rungBudget = 2 * share
		}
		r, d, u, err := measure(spans, spec, rungBudget, top)
		if err != nil {
			return nil, err
		}
		if top {
			untracedUS = u
		}
		deltas[spec.name] = d
		out.Rungs = append(out.Rungs, r)
	}
	// The session op records its three calls as child spans itself.
	if specs[0].name == sessionSpan {
		for _, child := range []struct{ name, metric, label string }{
			{"group.grant", rpcLatency, "method=" + svc.GroupGrantMethod},
			{"authz.grant", rpcLatency, "method=" + svc.GrantMethod},
			{"endserver.first_request", rpcLatency, "method=" + svc.RequestMethod},
		} {
			r, err := summarize(child.name, sessionSpan, false, spans.durations(child.name))
			if err != nil {
				return nil, err
			}
			specs = append(specs, rungSpec{name: child.name, parent: sessionSpan, metric: child.metric, label: child.label, during: sessionSpan})
			out.Rungs = append(out.Rungs, r)
		}
	}

	for i := range out.Rungs {
		r := &out.Rungs[i]
		r.SelfUS = r.MedianUS
		for _, c := range out.Rungs {
			if c.Parent == r.Name && !c.Side {
				r.SelfUS -= c.MedianUS
			}
		}
		if !r.Side {
			out.SelfSumUS += r.SelfUS
		}
		for _, spec := range specs {
			if spec.name != r.Name || spec.metric == "" {
				continue
			}
			during := spec.during
			if during == "" {
				during = spec.name
			}
			r.Program = spec.metric
			if spec.label != "" {
				r.Program += "{" + spec.label + "}"
			}
			r.ProgramMeanUS, _ = deltas[during].meanMicros(spec.metric, spec.label)
			r.ResidualUS = r.MeanUS - r.ProgramMeanUS
		}
	}
	out.TopUS = out.Rungs[0].MedianUS
	out.TraceOverheadRatio = out.TopUS / untracedUS
	return out, spans.write(traceFile)
}

const (
	rpcLatency  = "proxykit_rpc_latency_seconds"
	httpLatency = "proxykit_gateway_http_latency_seconds"
	fsyncHist   = "proxykit_ledger_fsync_seconds"
)

// ladderSpecs builds w's rungs, top first. cleanup releases whatever the
// lower rungs needed beside the topology (scratch ledger, probe file).
func ladderSpecs(t *topology, w *workload, lc *client) (specs []rungSpec, cleanup func(), err error) {
	var closers []func()
	cleanup = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	defer func() {
		if err != nil {
			cleanup()
		}
	}()
	top := func(*spanLog) error { return w.op(t, lc, nil) }
	rtt := rungSpec{name: "transport.rtt", side: true, fn: func(*spanLog) error {
		_, err := t.noopC.Call(noopMethod, nil)
		return err
	}}

	if len(t.accounts) == 0 {
		// The authorize path: request over TCP → AuthorizeCtx in
		// process → VerifyPresentation, each on the presentation the
		// server would have decoded.
		reqs := make([]*endserver.Request, len(t.sims))
		for i, s := range t.sims {
			grant := s.grant
			if grant == nil {
				if grant, err = t.acquire(s, nil); err != nil {
					return nil, nil, err
				}
			}
			pres, err := proxy.UnmarshalPresentation(grant.PresentDelegate().Marshal())
			if err != nil {
				return nil, nil, err
			}
			reqs[i] = &endserver.Request{
				Object: sharedDoc, Op: "read",
				Identities: []principal.ID{s.ident.ID},
				Proxies:    []*proxy.Presentation{pres},
			}
		}
		next := 0
		request := func() *endserver.Request {
			next++
			return reqs[next%len(reqs)]
		}
		verify := func(env *proxy.VerifyEnv) func(*spanLog) error {
			return func(*spanLog) error {
				_, err := env.VerifyPresentation(request().Proxies[0], nil)
				return err
			}
		}
		warm := &proxy.VerifyEnv{Server: t.fileID, ResolveIdentity: t.resolve, Cache: proxy.NewChainCache(proxy.DefaultChainCacheSize)}
		for range reqs {
			if err := verify(warm)(nil); err != nil { // prime
				return nil, nil, err
			}
		}
		cold := &proxy.VerifyEnv{Server: t.fileID, ResolveIdentity: t.resolve}
		if w.preacquire {
			return []rungSpec{
				{name: "end.request", metric: rpcLatency, label: "method=" + svc.RequestMethod, fn: top},
				{name: "endserver.authorize", parent: "end.request", fn: func(*spanLog) error {
					_, err := t.fileSrv.AuthorizeCtx(context.Background(), request())
					return err
				}},
				{name: "proxy.verify_warm", parent: "endserver.authorize", fn: verify(warm)},
				{name: "proxy.verify_cold", side: true, fn: verify(cold)},
				rtt,
			}, cleanup, nil
		}
		return []rungSpec{
			// The session op records its three calls as child spans.
			{name: sessionSpan, fn: func(spans *spanLog) error { return w.op(t, lc, spans) }},
			{name: "proxy.verify_cold", side: true, fn: verify(cold)},
			{name: "proxy.verify_warm", side: true, fn: verify(warm)},
			rtt,
		}, cleanup, nil
	}

	// The pay path: HTTP → RPC with standby → RPC without → TransferCtx
	// in process → Ledger.Append → raw write+sync.
	solo := t.bank
	if w.standby {
		if solo, err = t.soloBank(); err != nil {
			return nil, nil, err
		}
	}
	mem, err := t.memBank()
	if err != nil {
		return nil, nil, err
	}
	scratch, _, err := ledger.Open(ledger.Options{Dir: filepath.Join(t.dir, "ledger-scratch"), Fsync: ledger.FsyncAlways})
	if err != nil {
		return nil, nil, err
	}
	closers = append(closers, func() { _ = scratch.Close() })
	probe, err := openSyncProbe(t.dir)
	if err != nil {
		return nil, nil, err
	}
	closers = append(closers, probe.close)

	soloClients := make([]*svc.AcctClient, len(t.sims))
	for i, s := range t.sims {
		soloClients[i] = svc.NewAcctClient(solo.client, s.ident, nil)
	}
	// transfer issues lc's next transfer through do; only transfers on
	// the main bank count towards its expected balances.
	transfer := func(onMain bool, do func(p int, from, to string) error) func(*spanLog) error {
		return func(*spanLog) error {
			p := lc.principal()
			from, to := lc.pair(t, p)
			if err := do(p, t.accounts[from], t.accounts[to]); err != nil {
				return err
			}
			if onMain {
				lc.ack(from, to)
			}
			return nil
		}
	}
	inProcess := func(srv *accounting.Server) func(p int, from, to string) error {
		return func(p int, from, to string) error {
			return srv.TransferCtx(context.Background(), from, to, currency, 1, []principal.ID{t.sims[p].ident.ID})
		}
	}
	// A real transfer record, as the WAL holds it, sizes the two lowest
	// rungs.
	payload, err := transferRecord(solo.srv.Ledger(), transfer(solo == t.bank, inProcess(solo.srv)))
	if err != nil {
		return nil, nil, err
	}
	// Each rung of the chain contains the next.
	push := func(r rungSpec) {
		if len(specs) > 0 {
			r.parent = specs[len(specs)-1].name
		}
		specs = append(specs, r)
	}
	rpcLabel := "method=" + svc.TransferMethod
	if w.http {
		push(rungSpec{name: "http.transfer", metric: httpLatency, label: "route=POST /v1/transfer", fn: top})
	}
	if w.standby {
		push(rungSpec{name: "acct.transfer+standby", metric: rpcLatency, label: rpcLabel,
			fn: transfer(true, func(p int, from, to string) error {
				return t.sims[p].bank.Transfer(from, to, currency, 1)
			})})
	}
	push(rungSpec{name: "acct.transfer", metric: rpcLatency, label: rpcLabel,
		fn: transfer(solo == t.bank, func(p int, from, to string) error {
			return soloClients[p].Transfer(from, to, currency, 1)
		})})
	push(rungSpec{name: "accounting.transfer", fn: transfer(solo == t.bank, inProcess(solo.srv))})
	push(rungSpec{name: "ledger.append", fn: func(*spanLog) error {
		_, err := scratch.Append(payload)
		return err
	}})
	// The ledger times its own fsync while the append rung runs.
	push(rungSpec{name: "ledger.device_sync", metric: fsyncHist, during: "ledger.append",
		fn: func(*spanLog) error { return probe.writeSync(payload) }})
	return append(specs,
		rungSpec{name: "accounting.transfer_mem", side: true, fn: transfer(false, inProcess(mem))},
		rtt,
	), cleanup, nil
}

// transferRecord commits one transfer and returns its WAL payload. The
// snapshotter may truncate the record away between the commit and the
// read, so it tries a few times.
func transferRecord(lg *ledger.Ledger, transfer func(*spanLog) error) ([]byte, error) {
	var err error
	for try := 0; try < 5; try++ {
		if err = transfer(nil); err != nil {
			return nil, err
		}
		var res ledger.CursorResult
		if res, err = lg.ReadEntries(lg.LastSeq(), 1); err == nil && len(res.Entries) == 1 {
			return res.Entries[0].Data, nil
		}
	}
	return nil, fmt.Errorf("no transfer record to size the append rung with: %v", err)
}
