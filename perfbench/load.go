package main

import (
	"sync"
	"time"
)

// runSegment drives w's closed loop for dur: every client issues its
// next request as soon as the previous one is answered. Latency is
// client-observed, per op; the segment's wall time runs from the common
// start to the last reply. The error is the first failed op's, if any.
func runSegment(t *topology, w *workload, clients []*client, dur time.Duration) (segment, error) {
	type result struct {
		latencies []float64
		failed    int
		overLimit int
		firstErr  error
		end       time.Time
	}
	results := make([]result, len(clients))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			r := &results[i]
			r.latencies = make([]float64, 0, 1<<16)
			for {
				begin := time.Now()
				if !begin.Before(deadline) {
					r.end = begin
					return
				}
				err := w.op(t, c, nil)
				us := micros(time.Since(begin))
				if err != nil {
					r.failed++
					if r.firstErr == nil {
						r.firstErr = err
					}
					continue
				}
				if us > w.limitUS {
					r.overLimit++
				}
				r.latencies = append(r.latencies, us)
			}
		}(i, c)
	}
	wg.Wait()

	var seg segment
	var firstErr error
	end := start
	for i := range results {
		r := &results[i]
		seg.latencies = append(seg.latencies, r.latencies...)
		seg.failed += r.failed
		seg.overLimit += r.overLimit
		if firstErr == nil {
			firstErr = r.firstErr
		}
		if r.end.After(end) {
			end = r.end
		}
	}
	seg.wall = end.Sub(start)
	return seg, firstErr
}

// warmUp touches every principal once through the workload's own op,
// then runs the closed loop untimed for dur, so caches are filled and
// lazy set-up is done before anything is measured.
func warmUp(t *topology, w *workload, clients []*client, dur time.Duration) error {
	for i := 0; i < w.principals; i++ {
		if err := w.op(t, clients[0], nil); err != nil {
			return err
		}
	}
	_, err := runSegment(t, w, clients, dur)
	return err
}
