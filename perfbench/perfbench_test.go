package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/nids"
)

func TestPoissonScheduleIsFixedBySeed(t *testing.T) {
	a := poissonSchedule(7, 500, 2000)
	b := poissonSchedule(7, 500, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 500, 2000)) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("offset %d goes back in time: %v < %v", i, a[i], a[i-1])
		}
	}
	// 2000 arrivals at 500/s span about 4 s.
	if got := a[len(a)-1].Seconds(); got < 3.6 || got > 4.4 {
		t.Fatalf("2000 arrivals at 500/s end at %.2fs, want about 4s", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {1, 10}, {0.01, 1},
	} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := percentile([]float64{3}, 0.99); got != 3 {
		t.Errorf("percentile of one sample = %v, want 3", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %v, want 5", got)
	}
}

func TestSampleCountRule(t *testing.T) {
	// p99 has at least ten samples beyond it from 1000 samples on.
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{
		{1000, 0.99, 10}, {999, 0.99, 9}, {2250, 0.99, 22}, {100, 0.5, 50}, {0, 0.99, 0},
	} {
		if got := samplesBeyond(c.n, c.q); got != c.want {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

// A client that sends one request at a time stalls on request 0: every
// request due during the stall waits behind it, and timing from the due
// time charges that wait to each of them.
func TestDueTimeLatencyChargesClientStall(t *testing.T) {
	const stall = 60 * time.Millisecond
	sched := make([]time.Duration, 20)
	for i := range sched {
		sched[i] = time.Duration(i) * time.Millisecond
	}
	var conn sync.Mutex // one connection: requests go out one at a time
	res := runOpenLoop(context.Background(), sched, func(_ context.Context, i int, _ time.Time) bool {
		conn.Lock()
		defer conn.Unlock()
		if i == 0 {
			time.Sleep(stall)
		}
		return true
	})
	if res.attempted != len(sched) || res.failed != 0 {
		t.Fatalf("attempted %d failed %d, want %d and 0", res.attempted, res.failed, len(sched))
	}
	for i, lat := range res.latencyMS {
		// Request i was due i ms in and could not start before the stall
		// ended, stall ms in.
		if floor := ms(stall) - float64(i); lat < floor {
			t.Errorf("request %d latency %.1f ms, want at least %.1f ms charged for the stall", i, lat, floor)
		}
	}
}

func TestOpenLoopChargesFailures(t *testing.T) {
	sched := []time.Duration{0, time.Millisecond}
	res := runOpenLoop(context.Background(), sched, func(_ context.Context, i int, _ time.Time) bool { return i == 0 })
	if res.failed != 1 || res.latencyMS[1] != ms(failedLatency) {
		t.Fatalf("failed %d, failed request latency %v; want 1 and %v", res.failed, res.latencyMS[1], ms(failedLatency))
	}
}

// Each verdict is checked against the oracle of the version that
// answered it; a disagreement beyond the tie margin, a version without
// an oracle or a short answer is a mismatch, and detection tallies count
// each (record, answering version) pair.
func TestCheckUsesTheAnsweringVersionsOracle(t *testing.T) {
	pool := []data.Record{{Label: 0}, {Label: 3}}
	e := &env{pool: pool, log: io.Discard, oracles: map[string]*oracle{
		"a": {version: "a", class: []int16{0, 3}, margin: []float32{1, 1}},
		"b": {version: "b", class: []int16{2, 3}, margin: []float32{1, 1e-5}},
	}}
	p := &pass{e: e, res: &passResult{served: map[string][]atomic.Uint32{
		"a": make([]atomic.Uint32, 2), "b": make([]atomic.Uint32, 2),
	}}}
	b := &reqBatch{idx: []int{0, 1}}
	v := func(classes ...int) []nids.Verdict {
		out := make([]nids.Verdict, len(classes))
		for i, c := range classes {
			out[i] = nids.Verdict{Class: c, IsAttack: c != 0}
		}
		return out
	}
	for _, c := range []struct {
		version  string
		verdicts []nids.Verdict
		ok       bool
	}{
		{"a", v(0, 3), true},
		{"b", v(2, 3), true},
		{"b", v(2, 1), true}, // record 1 is a tie under b
		{"a", v(2, 3), false},
		{"c", v(0, 3), false},
		{"a", v(0), false},
	} {
		if got := p.check(b, c.verdicts, c.version, true); got != c.ok {
			t.Errorf("check(version %s, %+v) = %v, want %v", c.version, c.verdicts, got, c.ok)
		}
	}
	if got := p.res.mismatches.Load(); got != 3 {
		t.Errorf("mismatches = %d, want 3", got)
	}
	// a: record 0 normal, record 1 attack; b: record 0 false alarm,
	// record 1 attack.
	if tp, fn, fp, tn := p.res.detection(e); tp != 2 || fn != 0 || fp != 1 || tn != 1 {
		t.Errorf("detection tp=%d fn=%d fp=%d tn=%d, want 2 0 1 1", tp, fn, fp, tn)
	}
}

// Capacity is the median of the whole one-second blocks, so one stalled
// block does not move it; a phase too short for three blocks falls back
// to its mean rate.
func TestClosedLoopCapacity(t *testing.T) {
	r := closedLoopResult{records: 3000, wall: 3 * time.Second, blockRPS: []float64{1000, 100, 1200, 1100}}
	if got := r.capacity(); got != 1000 {
		t.Errorf("capacity over blocks 1000,100,1200,1100 = %v, want their median 1000", got)
	}
	r.blockRPS = r.blockRPS[:2]
	if got := r.capacity(); got != 1000 {
		t.Errorf("capacity over two blocks = %v, want the mean rate 1000", got)
	}
}

const promText = `# HELP pelican_serve_queue_wait_seconds q
# TYPE pelican_serve_queue_wait_seconds histogram
pelican_serve_queue_wait_seconds_bucket{slot="live",plane="http",le="0.001"} 2
pelican_serve_queue_wait_seconds_bucket{slot="live",plane="http",le="+Inf"} 3
pelican_serve_queue_wait_seconds_sum{slot="live",plane="http"} 0.5
pelican_serve_queue_wait_seconds_count{slot="live",plane="http"} 3
pelican_serve_queue_wait_seconds_bucket{slot="live",plane="wire",le="0.001"} 1
pelican_serve_queue_wait_seconds_bucket{slot="live",plane="wire",le="+Inf"} 4
pelican_serve_queue_wait_seconds_sum{slot="live",plane="wire"} 1.5
pelican_serve_queue_wait_seconds_count{slot="live",plane="wire"} 4
pelican_serve_queue_wait_seconds_bucket{slot="shadow",le="0.001"} 100
pelican_serve_queue_wait_seconds_bucket{slot="shadow",le="+Inf"} 100
pelican_serve_queue_wait_seconds_sum{slot="shadow"} 9
pelican_serve_queue_wait_seconds_count{slot="shadow"} 100
# HELP pelican_serve_batches_total b
# TYPE pelican_serve_batches_total counter
pelican_serve_batches_total 40
`

// The live slot's series are summed over any other label (a per-plane
// split), never blended with other slots.
func TestScrapeSumsLiveSeriesOverOtherLabels(t *testing.T) {
	s, err := parseScrape(strings.NewReader(promText), time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	h := s.hists[famQueueWait]
	if h == nil || h.Count != 7 || h.Inf != 7 || h.Sum != 2 || len(h.Counts) != 1 || h.Counts[0] != 3 {
		t.Fatalf("live queue wait = %+v, want count 7, sum 2, 3 in the 1ms bucket", h)
	}
	if s.counters[famBatches] != 40 {
		t.Fatalf("batches = %v, want 40", s.counters[famBatches])
	}
}

// A scrape delta subtracts histograms bucket by bucket and counters by
// value, over the interval between the two scrapes.
func TestScrapeDelta(t *testing.T) {
	at := func(sec int, count int64, batches float64) *scrape {
		s, err := parseScrape(strings.NewReader(promText), time.Unix(int64(sec), 0))
		if err != nil {
			t.Fatal(err)
		}
		s.hists[famQueueWait].Count = count
		s.counters[famBatches] = batches
		return s
	}
	d := at(5, 15, 130).sub(at(2, 10, 100))
	if got := d.hists[famQueueWait].Count; got != 5 {
		t.Errorf("queue wait count delta = %d, want 5", got)
	}
	if got := d.counters[famBatches]; got != 30 {
		t.Errorf("batches delta = %v, want 30", got)
	}
	if d.wall != 3*time.Second {
		t.Errorf("delta interval = %v, want 3s", d.wall)
	}
}

func TestSelfTimeByLayer(t *testing.T) {
	spans := []span{
		{ID: 1, Name: rootRequestSpan, Start: 0, End: 10000},
		{ID: 2, Parent: 1, Name: "wire.encode", Start: 1000, End: 2000},
		{ID: 3, Parent: 1, Name: "serve.Client.Score", Start: 2000, End: 9000},
		{ID: 4, Parent: 3, Name: "infer.run", Start: 3000, End: 7000},
		{ID: 5, Parent: 3, Name: "serve.encode", Start: 6000, End: 8000}, // overlaps infer.run
		{ID: 6, Name: "infer.Engine.Run", Start: 0, End: 50000},          // a replay: not a request
	}
	got, n := selfTimeByLayer(spans)
	want := map[string]float64{"bench": 2, "wire": 1, "serve": 2 + 2, "infer": 4}
	if n != 1 || !reflect.DeepEqual(got, want) {
		t.Fatalf("self time = %v over %d requests, want %v over 1", got, n, want)
	}
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// declares.
func benchmarkMetrics(t *testing.T, key string) map[string]string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var defs []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[key], &defs); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, d := range defs {
		out[d.Name] = d.Unit
	}
	return out
}

// A smoke-sized run of every workload, untraced and traced, prints every
// metric BENCHMARK.json names, with its unit, and checks out correct.
func TestSmokeRunPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("trains fixtures and serves every workload")
	}
	dir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			want := benchmarkMetrics(t, map[string]string{"0": "end_to_end", "1": "per_layer"}[trace])
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke", "--workdir", dir}, &stdout, &stderr)
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line %q: %v\n%s", w.name, trace, lines[len(lines)-1], err, stderr.String())
			}
			if code != 0 || !res.Correct || res.Attempted < 1 {
				t.Fatalf("%s trace=%s: exit %d, correct %v, attempted %d\n%s", w.name, trace, code, res.Correct, res.Attempted, stderr.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %q", w.name, trace, name, got, unit)
				}
			}
		}
	}
}

func TestRejectsUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
}

func TestParseCPUStatSteal(t *testing.T) {
	a, ok := parseCPUStat("cpu  100 5 20 800 10 0 5 60 7 0")
	if !ok || a.steal != 60 || a.total != 1000 {
		t.Fatalf("parseCPUStat = %+v, %v; want steal 60 of 1000 ticks", a, ok)
	}
	b, _ := parseCPUStat("cpu  160 5 40 860 10 0 5 120 9 0")
	if got := stealShare(a, b); got != 0.3 {
		t.Fatalf("stealShare = %v, want 60 of 200 ticks = 0.3", got)
	}
	if got := stealShare(b, b); got != 0 {
		t.Fatalf("stealShare over no time = %v, want 0", got)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8", "cpu 1 2 3"} {
		if _, ok := parseCPUStat(bad); ok {
			t.Errorf("parseCPUStat(%q) accepted a line that is not the aggregate row", bad)
		}
	}
}

func TestCleanLatenciesDropStolenBlocks(t *testing.T) {
	sched := []time.Duration{100 * time.Millisecond, 900 * time.Millisecond, 1500 * time.Millisecond, 2500 * time.Millisecond}
	r := openLoopResult{latencyMS: []float64{1, 2, 30, 4}}
	lat, share := cleanLatencies(r, sched, []float64{0.02, 0.25, stealBound})
	if want := []float64{1, 2, 4}; !reflect.DeepEqual(lat, want) || share != 0.75 {
		t.Fatalf("cleanLatencies = %v (share %v), want %v (share 0.75)", lat, share, want)
	}
}

func TestUnstolenKeepsTheLeastStolenHalf(t *testing.T) {
	// Every measurement is over the bound: the least-stolen ones that
	// make up half the samples are kept.
	got := unstolen([]float64{0.3, 0.2, 0.5, 0.15}, []int{1, 1, 1, 1})
	if want := []bool{false, true, false, true}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unstolen = %v, want %v", got, want)
	}
	// A stolen measurement is kept too while the unstolen ones fall short
	// of half the samples, and left out once they make up half.
	got = unstolen([]float64{0.01, 0.05, 0.4}, []int{1, 1, 8})
	if want := []bool{true, true, true}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unstolen with the kept share short of half = %v, want %v", got, want)
	}
	got = unstolen([]float64{0.01, 0.05, 0.4}, []int{4, 4, 1})
	if want := []bool{true, true, false}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unstolen = %v, want %v", got, want)
	}
	r := passResult{setupS: []float64{9, 1, 2, 3}, setupSteal: []float64{0.5, 0, 0.02, 0.04}}
	if got := r.setupSeconds(); got != 2 {
		t.Fatalf("setupSeconds = %v, want the median 2 of the unstolen set-ups", got)
	}
}
