package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func ramp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestQuantileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
	}{
		{1, 0.5, 1}, {2, 0.5, 1}, {3, 0.5, 2}, {100, 0.5, 50}, {100, 0.99, 99}, {101, 0.99, 100}, {1000, 0.99, 990},
	} {
		got, err := quantile(ramp(tc.n), tc.q, 0)
		if err != nil || got != tc.want {
			t.Errorf("quantile(1..%d, %v) = %v, %v; want %v", tc.n, tc.q, got, err, tc.want)
		}
	}
	if _, err := quantile(nil, 0.5, 0); err == nil {
		t.Error("quantile of no samples did not fail")
	}
}

func TestQuantileTailRule(t *testing.T) {
	// 1000 samples leave exactly 10 beyond the p99 rank; 999 leave 9.
	if _, err := quantile(ramp(1000), 0.99, minTailSamples); err != nil {
		t.Errorf("p99 of 1000 samples refused: %v", err)
	}
	if _, err := quantile(ramp(999), 0.99, minTailSamples); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and was reported")
	}
	seg := segment{wall: time.Second, latencies: ramp(999)}
	if _, err := seg.stats(true); err == nil {
		t.Error("a segment with 9 samples beyond its p99 was reported")
	}
	if st, err := seg.stats(false); err != nil || st.p99 != 990 || st.p50 != 500 || st.goodput != 999 {
		t.Errorf("segment stats without the tail rule = %+v, %v", st, err)
	}
}

func TestMergeShort(t *testing.T) {
	seg := func(n int) segment { return segment{wall: time.Second, latencies: ramp(n), failed: 1} }
	counts := func(segs []segment) []int {
		var out []int
		for _, s := range segs {
			out = append(out, len(s.latencies))
		}
		return out
	}
	for _, tc := range []struct{ in, want []int }{
		{[]int{1000, 1000, 1000}, []int{1000, 1000, 1000}},
		{[]int{600, 600, 1500, 400}, []int{1200, 1900}},
		{[]int{400, 400}, []int{800}}, // unsupported: stats refuses it
	} {
		var in []segment
		for _, n := range tc.in {
			in = append(in, seg(n))
		}
		out := mergeShort(in)
		if !reflect.DeepEqual(counts(out), tc.want) {
			t.Errorf("mergeShort(%v) = %v, want %v", tc.in, counts(out), tc.want)
		}
		var wall time.Duration
		failed := 0
		for _, s := range out {
			wall += s.wall
			failed += s.failed
		}
		if wall != time.Duration(len(tc.in))*time.Second || failed != len(tc.in) {
			t.Errorf("mergeShort(%v) lost wall time or failures: %v, %d", tc.in, wall, failed)
		}
	}
	if _, err := mergeShort([]segment{seg(400), seg(400)})[0].stats(true); err == nil {
		t.Error("a run too short for any p99 was reported")
	}
}

// The expected values are Python's statistics.median and
// statistics.quantiles(values, n=4), which the acceptance driver uses.
func TestMedianIQRMatchesPython(t *testing.T) {
	for _, tc := range []struct {
		values         []float64
		median, spread float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6}, 3.5, 1.0},
		{[]float64{10, 12, 11, 13, 9, 14, 10, 12, 11, 15}, 11.5, 0.2826086956521739},
		{[]float64{5, 7, 9}, 7, 0.5714285714285714},
		{[]float64{100, 101}, 100.5, 0.014925373134328358},
		{[]float64{42}, 42, 0},
	} {
		median, spread := medianIQR(tc.values)
		if median != tc.median || math.Abs(spread-tc.spread) > 1e-12 {
			t.Errorf("medianIQR(%v) = %v, %v; want %v, %v", tc.values, median, spread, tc.median, tc.spread)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "goodput_ops_s", Better: "higher", Bound: 0.10}
	steady := func(v float64) []float64 { return []float64{v, v * 1.01, v * 0.99, v} }
	for _, tc := range []struct {
		def  metricDef
		a, b []float64
		want string
	}{
		{lower, steady(100), steady(105), "ok"},
		{lower, steady(100), steady(115), "regressed"},
		{lower, steady(100), steady(80), "ok"},
		{higher, steady(100), steady(85), "regressed"},
		{higher, steady(100), steady(120), "ok"},
		{lower, steady(100), []float64{80, 100, 120, 140}, "unresolved"},
	} {
		if _, _, _, _, got := verdict(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", tc.def.Name, tc.a, tc.b, got, tc.want)
		}
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !reflect.DeepEqual(b.EndToEnd, endToEndDefs) {
		t.Errorf("end_to_end = %+v, program reports %+v", b.EndToEnd, endToEndDefs)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayerDefs) {
		t.Errorf("per_layer = %+v, program reports %+v", b.PerLayer, perLayerDefs)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, program has %s: %s", i, b.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("why of %s is not one line of at most 200 characters", w.name)
		}
	}
	if !reflect.DeepEqual(b.Paths, []string{"perfbench"}) {
		t.Errorf("paths = %v", b.Paths)
	}
	if b.RunSeconds%timedSegments != 0 {
		t.Errorf("run_seconds %d does not split into %d whole-second segments", b.RunSeconds, timedSegments)
	}
}

// TestSmoke runs every workload end to end in smoke mode: set-up,
// negative controls, load, the traced ladder, and every correctness
// check, and holds the output to the names BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run takes about 15 s")
	}
	b := readBenchmarkJSON(t)
	out := filepath.Join(t.TempDir(), "smoke.jsonl")
	var stdout bytes.Buffer
	start := time.Now()
	if err := run([]string{"-smoke", "-o", out}, &stdout); err != nil {
		t.Fatalf("smoke run: %v\n%s", err, stdout.String())
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Errorf("smoke run took %v, want under 20 s", elapsed)
	}

	names := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.Name)
		}
		sort.Strings(out)
		return out
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != len(b.Workloads) {
		t.Fatalf("%d results, want %d", len(lines), len(b.Workloads))
	}
	for i, line := range lines {
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatal(err)
		}
		if r.Workload != b.Workloads[i].Name {
			t.Errorf("result %d is %s, want %s", i, r.Workload, b.Workloads[i].Name)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d checks=%+v", r.Workload, r.Correct, r.Failed, r.Attempted, r.Checks)
		}
		var got []string
		for name := range r.EndToEnd {
			got = append(got, name)
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, names(b.EndToEnd)) {
			t.Errorf("%s: end-to-end metrics %v, BENCHMARK.json declares %v", r.Workload, got, names(b.EndToEnd))
		}
		got = nil
		for name := range r.PerLayer {
			got = append(got, name)
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, names(b.PerLayer)) {
			t.Errorf("%s: per-layer metrics %v, BENCHMARK.json declares %v", r.Workload, got, names(b.PerLayer))
		}
		if r.Env.GoVersion == "" || r.Env.NumCPU == 0 || r.Env.LedgerFS == "" || r.Env.DeviceSyncUS <= 0 {
			t.Errorf("%s: environment record incomplete: %+v", r.Workload, r.Env)
		}
	}

	// The last line of standard output is the object the driver reads.
	outLines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(outLines[len(outLines)-1]), &last); err != nil {
		t.Fatalf("last line is not a JSON object: %v", err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("last line has keys %v, want %v", keys, want)
	}
}
