package main

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// poissonSchedule returns n send offsets of a Poisson arrival process at
// ratePerSec, drawn from seed: the same seed always gives the same
// schedule. Offsets are cumulative exponential inter-arrival gaps.
func poissonSchedule(seed int64, ratePerSec float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / ratePerSec
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted:
// the smallest value with at least q·n samples at or below it. It returns
// 0 for an empty sample.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank]
}

// samplesBeyond is how many of n samples lie strictly beyond the
// nearest-rank q-quantile. A percentile is reported as resolved only when
// at least minTail samples lie beyond it.
func samplesBeyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(q*float64(n)))
}

// minTail is the fewest samples a reported percentile needs beyond it.
const minTail = 10

// sortedCopy returns v sorted ascending, leaving v untouched.
func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

// openLoopResult is what one open-loop phase measured.
type openLoopResult struct {
	// latencyMS holds one entry per attempted request, from its due time
	// to its answer. A failed request is charged failedLatency.
	latencyMS []float64
	// lagMS is how late the generator dispatched each request.
	lagMS     []float64
	attempted int
	failed    int
}

// failedLatency is charged to a failed request: a failed or refused
// request misses any latency limit, so it sorts past every answered one.
const failedLatency = 10 * time.Second

// maxOutstanding caps the requests one open-loop phase keeps in flight.
// It only bounds memory if the server stalls outright; reaching it blocks
// the generator, which then shows as lag.
const maxOutstanding = 4096

// runOpenLoop sends request i at start+sched[i], each from its own
// goroutine, and times it from that due time to its answer — so a stall
// anywhere (generator, client, server) is charged to every request queued
// behind it. issue performs request i and reports whether it succeeded.
// runOpenLoop returns once every request has been answered.
func runOpenLoop(ctx context.Context, sched []time.Duration, issue func(ctx context.Context, i int, due time.Time) bool) openLoopResult {
	res := openLoopResult{
		latencyMS: make([]float64, len(sched)),
		lagMS:     make([]float64, 0, len(sched)),
	}
	var (
		wg     sync.WaitGroup
		failed atomic.Int64
		sem    = make(chan struct{}, maxOutstanding)
	)
	start := time.Now()
	for i, off := range sched {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		if ctx.Err() != nil {
			break
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		res.lagMS = append(res.lagMS, ms(time.Since(due)))
		res.attempted++
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			ok := issue(ctx, i, due)
			lat := time.Since(due)
			if !ok {
				failed.Add(1)
				lat = failedLatency
			}
			res.latencyMS[i] = ms(lat)
		}(i, due)
	}
	wg.Wait()
	res.latencyMS = res.latencyMS[:res.attempted]
	res.failed = int(failed.Load())
	return res
}

// closedLoopResult is what one closed-loop phase measured.
type closedLoopResult struct {
	attempted, failed int
	records           int64
	wall              time.Duration
	// blockRPS is the records/s answered in each whole closedBlock of the
	// phase, in order.
	blockRPS []float64
	// cpu is the process's user and system CPU time over the phase: the
	// benchmark's own share is constant across commits, and unlike
	// records/s it does not count time the host took the CPU away.
	cpu time.Duration
}

// cpuPerRecordUS is the process CPU time per answered record, in µs.
func (r closedLoopResult) cpuPerRecordUS() float64 {
	return float64(r.cpu.Microseconds()) / float64(max(r.records, 1))
}

// closedBlock is the interval a closed-loop phase counts answered records
// over.
const closedBlock = time.Second

// capacity is the phase's records/s: the median over its whole blocks,
// which a stall confined to one block cannot move, or, for a phase
// shorter than three blocks, the phase's mean rate.
func (r closedLoopResult) capacity() float64 {
	if len(r.blockRPS) >= 3 {
		return median(r.blockRPS)
	}
	return float64(r.records) / r.wall.Seconds()
}

// runClosedLoop keeps window requests in flight for d: each of window
// workers sends its next request as soon as its previous one is answered.
// issue performs the worker's n-th request and returns the records it got
// verdicts for (0 on failure).
func runClosedLoop(ctx context.Context, window int, d time.Duration, issue func(ctx context.Context, worker, n int) (records int, ok bool)) closedLoopResult {
	ctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	var (
		wg                sync.WaitGroup
		attempted, failed atomic.Int64
		records           atomic.Int64
		blocks            = make([]atomic.Int64, d/closedBlock+1)
	)
	start := time.Now()
	for w := 0; w < window; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; ctx.Err() == nil; n++ {
				attempted.Add(1)
				recs, ok := issue(ctx, w, n)
				if !ok {
					failed.Add(1)
					continue
				}
				records.Add(int64(recs))
				if b := int(time.Since(start) / closedBlock); b < len(blocks) {
					blocks[b].Add(int64(recs))
				}
			}
		}(w)
	}
	wg.Wait()
	res := closedLoopResult{
		attempted: int(attempted.Load()),
		failed:    int(failed.Load()),
		records:   records.Load(),
		wall:      time.Since(start),
	}
	for b := 0; b < int(d/closedBlock); b++ {
		res.blockRPS = append(res.blockRPS, float64(blocks[b].Load())/closedBlock.Seconds())
	}
	return res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
