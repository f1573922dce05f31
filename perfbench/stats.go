package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTailSamples is how many observations must lie beyond a reported
// quantile for it to count as measured (choosing-metrics §1).
const minTailSamples = 10

// quantile returns the nearest-rank q-quantile of sorted (ascending):
// the smallest element with at least q·n observations at or below it.
// It refuses when fewer than minBeyond observations lie strictly beyond
// that rank — a p99 over 500 samples is the 5th-worst observation, not
// a percentile.
func quantile(sorted []float64, q float64, minBeyond int) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("quantile %.2f of no samples", q)
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("quantile %.2f of %d samples has %d beyond it, need %d", q, n, beyond, minBeyond)
	}
	return sorted[rank-1], nil
}

// medianIQR summarizes a handful of per-segment (or per-run) values:
// the median, and the distance between the first and third quartiles as
// a share of it. Quartiles use the exclusive method — the one Python's
// statistics.quantiles(values, n=4) defaults to — so the spread printed
// here is the spread the acceptance driver computes.
func medianIQR(values []float64) (median, spread float64) {
	n := len(values)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], 0
	}
	quartile := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	median = quartile(2)
	if median == 0 {
		return 0, 0
	}
	return median, (quartile(3) - quartile(1)) / math.Abs(median)
}

// segment is one timed slice of closed-loop load.
type segment struct {
	wall      time.Duration
	latencies []float64 // µs, successful ops only, unsorted
	failed    int
	overLimit int
}

// segmentStats are the per-segment end-to-end values.
type segmentStats struct {
	goodput, p50, p99 float64
}

// stats computes a segment's goodput and latency quantiles. enforceTail
// applies the ≥10-samples-beyond-p99 rule; smoke runs report without it.
func (s *segment) stats(enforceTail bool) (segmentStats, error) {
	sorted := append([]float64(nil), s.latencies...)
	sort.Float64s(sorted)
	p50, err := quantile(sorted, 0.50, 0)
	if err != nil {
		return segmentStats{}, err
	}
	need := 0
	if enforceTail {
		need = minTailSamples
	}
	p99, err := quantile(sorted, 0.99, need)
	if err != nil {
		return segmentStats{}, err
	}
	return segmentStats{
		goodput: float64(len(sorted)) / s.wall.Seconds(),
		p50:     p50,
		p99:     p99,
	}, nil
}

// tailSupported reports whether the segment has enough samples beyond
// its p99 for the p99 to be reported.
func (s *segment) tailSupported() bool {
	n := len(s.latencies)
	return n-int(math.Ceil(0.99*float64(n))) >= minTailSamples
}

// mergeShort joins every segment too short to support its p99 with the
// segments after it (a short tail joins the segment before), so a slow
// machine yields fewer, longer segments instead of an unsupported
// quantile. A run too short to support even one p99 comes back as a
// single unsupported segment, which stats then refuses.
func mergeShort(segs []segment) []segment {
	var out []segment
	var cur *segment
	join := func(dst *segment, s segment) {
		dst.wall += s.wall
		dst.latencies = append(dst.latencies, s.latencies...)
		dst.failed += s.failed
		dst.overLimit += s.overLimit
	}
	for _, s := range segs {
		if cur == nil {
			cur = &segment{}
		}
		join(cur, s)
		if cur.tailSupported() {
			out = append(out, *cur)
			cur = nil
		}
	}
	switch {
	case cur == nil:
	case len(out) == 0:
		out = append(out, *cur)
	default:
		join(&out[len(out)-1], *cur)
	}
	return out
}

// micros converts a duration to float microseconds.
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
