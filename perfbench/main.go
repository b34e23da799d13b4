// Command perfbench is the repository benchmark: it serves a trained
// detector from an in-process serve.Server on loopback (HTTP and wire
// planes), drives one named workload from a seed, checks every verdict
// against a float64 oracle, and prints every metric by name with its unit.
//
// Usage (from the repository root, through the build wrapper):
//
//	bash perfbench/run.sh --workload pelican-wire --seed 1 --seconds 25 --trace 0
//
// A pass sets the server up (timing it to the first verdict), warms it
// up, sends a seeded Poisson open-loop schedule timed from each request's
// due time, keeps a fixed closed-loop window in flight, then times
// lifecycle cycles (load, promote, rollback) on the idle server. On the
// churn workload the lifecycle cycles run beside both scoring phases
// instead, on a server built on a durable store.
//
// Latency percentiles and setup_s leave out what was measured while the
// hypervisor took more than stealBound of the machine's CPU time (steal,
// sampled from /proc/stat per second of the open loop and per set-up),
// as long as what is left makes up half of the run; see steal.go.
//
// With --trace 0 the last stdout line holds the end-to-end metrics; with
// --trace 1 it runs an untraced pass and then a traced one, and holds the
// per-layer metrics, the tracing overhead and per-layer self time, and
// writes the span file. The line before the result carries the host and
// build fingerprint, the per-phase op counts and the tail figures. See
// BENCHMARK.json for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are what --trace 0 reports: the end-to-end figures
// whose run-to-run spread on a shared 2-vCPU host stays within a bound.
// Closed-loop capacity follows the host's speed, which drifts by a third
// or more over minutes there (the process CPU time per record moves with
// it, at no steal), and the open-loop p99 and the lifecycle op
// percentiles swing as much; they are printed on the info line and,
// from the untraced pass, among the per-layer metrics.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"detection_rate", "ratio"},
	{"false_alarm_rate", "ratio"},
	{"live_heap_mb", "MiB"},
}

// layerMetricDefs are what --trace 1 reports.
var layerMetricDefs = []metricDef{
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.capacity_rps", "records/s"},
	{"loadgen.p99_ms", "ms"},
	{"loadgen.p99_samples_beyond", "count"},
	{"serve.swap_p50_ms", "ms"},
	{"serve.swap_p90_ms", "ms"},
	{"wire.encode_us_per_req", "us"},
	{"wire.decode_us_per_req", "us"},
	{"wire.bytes_in_per_record", "bytes"},
	{"wire.bytes_out_per_record", "bytes"},
	{"serve.http_bytes_in_per_record", "bytes"},
	{"serve.http_bytes_out_per_record", "bytes"},
	{"serve.json_marshal_us_per_req", "us"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.queue_wait_p99_ms", "ms"},
	{"serve.batch_assembly_mean_ms", "ms"},
	{"serve.batches", "count"},
	{"serve.batch_size_mean", "records"},
	{"serve.infer_mean_ms", "ms"},
	{"serve.infer_busy_share", "ratio"},
	{"serve.encode_mean_ms", "ms"},
	{"serve.request_p99_ms", "ms"},
	{"serve.shed", "count"},
	{"serve.deadline_expired", "count"},
	{"serve.mirrored", "count"},
	{"serve.mirror_dropped", "count"},
	{"serve.load_ms_p50", "ms"},
	{"serve.promote_ms_p50", "ms"},
	{"serve.rollback_ms_p50", "ms"},
	{"infer.run_us_per_record", "us"},
	{"infer.gflops", "GFLOP/s"},
	{"infer.detect_us_per_record", "us"},
	{"infer.compile_ms", "ms"},
	{"infer.weight_bytes", "bytes"},
	{"infer.arena_bytes", "bytes"},
	{"data.encode_us_per_record", "us"},
	{"store.put_ms", "ms"},
	{"store.journal_append_ms", "ms"},
	{"store.artifacts", "count"},
	{"store.bytes", "bytes"},
	{"registry.promotes", "count"},
	{"registry.rollbacks", "count"},
	{"setup.artifact_load_ms", "ms"},
	{"setup.server_new_ms", "ms"},
	{"setup.first_verdict_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.cpu_us_per_record", "us"},
	{"trace.overhead_p50_ms", "ms"},
	{"trace.overhead_capacity_pct", "%"},
	{"trace.spans", "count"},
	{"trace.http_joined", "count"},
	{"self.bench_us_per_req", "us"},
	{"self.wire_us_per_req", "us"},
	{"self.serve_us_per_req", "us"},
	{"self.infer_us_per_req", "us"},
}

// lagBoundMS is the generator lateness (p99, open-loop phase) beyond which
// a run is invalid: its requests no longer left on schedule.
const lagBoundMS = 50

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	workDir  string
	smoke    bool
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	fs.Int64Var(&o.seed, "seed", 1, "seed for record order and arrival times")
	fs.Float64Var(&o.seconds, "seconds", 25, "seconds the open- and closed-loop phases measure, together")
	fs.IntVar(&o.trace, "trace", 0, "1: untraced then traced pass, report per-layer metrics")
	fs.StringVar(&o.workDir, "workdir", filepath.Join(".bench_build", "perfbench"), "fixture cache, span files and scratch state")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny fixtures and rates: a self-test of every code path, not a measurement")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	return o, nil
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phaseCount is one phase's op accounting.
type phaseCount struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	w, err := lookupWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if o.smoke {
		w = smokeSized(w)
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	e, err := prepare(w, o.seed, o.seconds, o.workDir, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: prepare:", err)
		return 1
	}
	ctx := context.Background()
	fmt.Fprintf(stderr, "perfbench: %s seed=%d seconds=%g trace=%d\n", w.name, o.seed, o.seconds, o.trace)

	var (
		metrics map[string]float64
		defs    []metricDef
		passes  []*passResult
		info    = map[string]any{"fingerprint": hostFingerprint(o, e.source)}
	)
	if o.trace == 0 {
		res, err := runPass(ctx, e, w.setups, nil)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		passes = []*passResult{res}
		metrics, defs = endToEnd(res, e), endToEndMetrics
	} else {
		base, err := runPass(ctx, e, 1, nil)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: untraced pass:", err)
			return 1
		}
		tr := newTracer()
		traced, err := runPass(ctx, e, 1, tr)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: traced pass:", err)
			return 1
		}
		passes = []*passResult{base, traced}
		minDur := 200 * time.Millisecond
		if o.smoke {
			minDur = 5 * time.Millisecond
		}
		metrics, err = layerMetrics(e, base, traced, tr, minDur)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: layer replays:", err)
			return 1
		}
		defs = layerMetricDefs
		spanDir := filepath.Join(o.workDir, "spans")
		if err := os.MkdirAll(spanDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		spansPath := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
		if err := tr.writeFile(spansPath); err != nil {
			fmt.Fprintln(stderr, "perfbench: write spans:", err)
			return 1
		}
		info["spans_file"] = spansPath
	}

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	phases := map[string]phaseCount{}
	for _, p := range passes {
		if p.mismatches.Load() > 0 {
			res.Correct = false
		}
		if lag := percentile(sortedCopy(p.open.lagMS), 0.99); lag > lagBoundMS {
			fmt.Fprintf(stderr, "perfbench: invalid run: generator lag p99 %.2f ms over the %d ms bound\n", lag, lagBoundMS)
			res.Correct = false
		}
		for name, c := range p.phaseCounts() {
			acc := phases[name]
			acc.Attempted += c.Attempted
			acc.Succeeded += c.Succeeded
			acc.Failed += c.Failed
			phases[name] = acc
			res.Attempted += c.Attempted
			res.Failed += c.Failed
		}
	}
	last := passes[len(passes)-1]
	info["phases"] = phases
	lastLat, lastKept := last.openLatencies(e)
	info["open_loop_requests"] = len(last.open.latencyMS)
	info["open_loop_kept_requests"] = len(lastLat)
	info["open_loop_kept_share"] = lastKept
	info["open_loop_steal"] = last.openSteal
	info["setup_steal"] = passes[0].setupSteal
	info["setup_s_all"] = passes[0].setupS
	info["p99_samples_beyond"] = samplesBeyond(len(lastLat), 0.99)
	tails := endToEnd(passes[0], e)
	info["capacity_rps"], info["p99_ms"] = tails["capacity_rps"], tails["p99_ms"]
	info["swap_p50_ms"], info["swap_p90_ms"] = tails["swap_p50_ms"], tails["swap_p90_ms"]
	info["lag_p99_ms"] = percentile(sortedCopy(last.open.lagMS), 0.99)
	info["closed_mean_rps"] = float64(passes[0].closed.records) / passes[0].closed.wall.Seconds()
	info["closed_cpu_us_per_record"] = passes[0].closed.cpuPerRecordUS()
	info["closed_blocks_rps"] = passes[0].closed.blockRPS
	info["swap_ops"] = len(last.ops)
	info["mismatches"] = last.mismatches.Load()
	tp, fn, fp, tn := last.detection(e)
	info["detection_records"] = tp + fn + fp + tn
	if n := samplesBeyond(len(lastLat), 0.99); n < minTail {
		fmt.Fprintf(stderr, "perfbench: p99 rests on %d samples beyond it (want %d)\n", n, minTail)
	}
	for _, d := range defs {
		v, ok := metrics[d.name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured\n", d.name)
			return 1
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if b, err := json.Marshal(map[string]any{"info": info}); err == nil {
		fmt.Fprintln(stdout, string(b))
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// phaseCounts returns the pass's op accounting by phase.
func (r *passResult) phaseCounts() map[string]phaseCount {
	count := func(attempted, failed int) phaseCount {
		return phaseCount{Attempted: attempted, Succeeded: attempted - failed, Failed: failed}
	}
	opsFailed := 0
	for _, op := range r.ops {
		if !op.ok {
			opsFailed++
		}
	}
	return map[string]phaseCount{
		"setup":     count(len(r.setupS)+r.setupFails, r.setupFails),
		"open":      count(r.open.attempted, r.open.failed),
		"warmup":    count(r.warmup.attempted, r.warmup.failed),
		"closed":    count(r.closed.attempted, r.closed.failed),
		"lifecycle": count(len(r.ops), opsFailed),
	}
}

// endToEnd derives the end-to-end figures of a pass: the --trace 0
// metrics plus the closed-loop capacity, the open-loop p99 and the
// lifecycle op percentiles.
func endToEnd(r *passResult, e *env) map[string]float64 {
	tp, fn, fp, tn := r.detection(e)
	open, _ := r.openLatencies(e)
	lat := sortedCopy(open)
	swaps := make([]float64, len(r.ops))
	for i, op := range r.ops {
		swaps[i] = op.ms
		if !op.ok {
			swaps[i] = ms(failedLatency)
		}
	}
	sort.Float64s(swaps)
	return map[string]float64{
		"setup_s":          r.setupSeconds(),
		"p50_ms":           percentile(lat, 0.5),
		"p99_ms":           percentile(lat, 0.99),
		"capacity_rps":     r.closed.capacity(),
		"detection_rate":   ratio(tp, tp+fn),
		"false_alarm_rate": ratio(fp, fp+tn),
		"live_heap_mb":     r.heapMB,
		"swap_p50_ms":      percentile(swaps, 0.5),
		"swap_p90_ms":      percentile(swaps, 0.9),
	}
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// opMedian is the median duration of the pass's lifecycle ops named op.
func opMedian(ops []lifecycleOp, op string) float64 {
	var v []float64
	for _, o := range ops {
		if o.op == op && o.ok {
			v = append(v, o.ms)
		}
	}
	return median(v)
}

// layerMetrics derives the --trace 1 metrics. Stage, byte and span
// figures come from the traced pass; runtime GC figures and the tracing
// overhead's baseline come from the untraced pass, which allocates
// nothing for tracing.
func layerMetrics(e *env, base, traced *passResult, tr *tracer, minDur time.Duration) (map[string]float64, error) {
	m := map[string]float64{}
	// PromHist's Quantile and Mean read a family the server did not
	// export (nil) as zero.
	win := traced.stages
	m["serve.queue_wait_p50_ms"] = win.hists[famQueueWait].Quantile(0.5) * 1e3
	m["serve.queue_wait_p99_ms"] = win.hists[famQueueWait].Quantile(0.99) * 1e3
	m["serve.batch_assembly_mean_ms"] = win.hists[famAssembly].Mean() * 1e3
	m["serve.batches"] = win.counters[famBatches]
	m["serve.batch_size_mean"] = win.hists[famBatchSize].Mean()
	m["serve.infer_mean_ms"] = win.hists[famInfer].Mean() * 1e3
	m["serve.infer_busy_share"] = 0
	if infer := win.hists[famInfer]; infer != nil && win.wall > 0 && traced.replicas > 0 {
		m["serve.infer_busy_share"] = infer.Sum / (win.wall.Seconds() * float64(traced.replicas))
	}
	m["serve.encode_mean_ms"] = win.hists[famEncode].Mean() * 1e3
	m["serve.request_p99_ms"] = win.hists[famRequest].Quantile(0.99) * 1e3
	m["serve.shed"] = win.counters[famShed]
	m["serve.deadline_expired"] = win.counters[famExpired]
	m["serve.mirrored"] = float64(traced.mirrored)
	m["serve.mirror_dropped"] = float64(traced.mirrorDropped)

	perRecord := func(b int64) float64 { return ratio(b, traced.scoredRecords) }
	m["wire.bytes_in_per_record"], m["wire.bytes_out_per_record"] = 0, 0
	m["serve.http_bytes_in_per_record"], m["serve.http_bytes_out_per_record"] = 0, 0
	if e.w.plane == "wire" {
		m["wire.bytes_in_per_record"], m["wire.bytes_out_per_record"] = perRecord(traced.wireIn), perRecord(traced.wireOut)
	} else {
		m["serve.http_bytes_in_per_record"], m["serve.http_bytes_out_per_record"] = perRecord(traced.httpIn), perRecord(traced.httpOut)
	}

	m["serve.load_ms_p50"] = opMedian(traced.ops, "load")
	m["serve.promote_ms_p50"] = opMedian(traced.ops, "promote")
	m["serve.rollback_ms_p50"] = opMedian(traced.ops, "rollback")
	m["registry.promotes"] = float64(traced.promotes)
	m["registry.rollbacks"] = float64(traced.rollbacks)
	m["setup.artifact_load_ms"] = traced.loadMS
	m["setup.server_new_ms"] = traced.newMS
	m["setup.first_verdict_ms"] = traced.firstMS
	m["loadgen.lag_p99_ms"] = percentile(sortedCopy(traced.open.lagMS), 0.99)
	m["runtime.gc_cycles"] = base.gcCycles
	m["runtime.gc_pause_ms"] = base.gcPauseMS
	m["runtime.cpu_us_per_record"] = base.closed.cpuPerRecordUS()

	b, t := endToEnd(base, e), endToEnd(traced, e)
	m["loadgen.capacity_rps"] = b["capacity_rps"]
	m["loadgen.p99_ms"] = b["p99_ms"]
	baseLat, _ := base.openLatencies(e)
	m["loadgen.p99_samples_beyond"] = float64(samplesBeyond(len(baseLat), 0.99))
	m["serve.swap_p50_ms"], m["serve.swap_p90_ms"] = b["swap_p50_ms"], b["swap_p90_ms"]
	m["trace.overhead_p50_ms"] = t["p50_ms"] - b["p50_ms"]
	m["trace.overhead_capacity_pct"] = 0
	if b["capacity_rps"] > 0 {
		m["trace.overhead_capacity_pct"] = 100 * (b["capacity_rps"] - t["capacity_rps"]) / b["capacity_rps"]
	}
	m["trace.http_joined"] = float64(len(traced.joined))

	meanBatch := int(m["serve.batch_size_mean"] + 0.5)
	if meanBatch < 1 {
		meanBatch = e.w.recsPerReq
	}
	replays, err := replayLayers(e, tr, meanBatch, minDur)
	if err != nil {
		return nil, err
	}
	for k, v := range replays {
		m[k] = v
	}

	spans := tr.snapshot()
	m["trace.spans"] = float64(len(spans))
	for layer, us := range selfTimes(e.w.plane, spans, traced) {
		m["self."+layer+"_us_per_req"] = us
	}
	return m, nil
}

// selfTimes is the self time per layer of a traced pass's requests, in
// microseconds per request. On HTTP it covers the requests whose server
// trace joined, whose server stages are spans of their own. No server
// trace joins a wire request, so there the server's share of the call is
// split off by the stage histograms' means: queue wait (which includes
// batch assembly) and response encode to serve, the batch's engine run to
// infer.
func selfTimes(plane string, spans []span, traced *passResult) map[string]float64 {
	if plane == "http" {
		joined := spans[:0:0]
		for _, s := range spans {
			if traced.joined[s.Req] {
				joined = append(joined, s)
			}
		}
		spans = joined
	}
	self, _ := selfTimeByLayer(spans)
	out := map[string]float64{}
	for _, layer := range []string{"bench", "wire", "serve", "infer"} {
		out[layer] = self[layer]
	}
	if plane == "wire" {
		h := traced.stages.hists
		out["serve"] = (h[famQueueWait].Mean() + h[famEncode].Mean()) * 1e6
		out["infer"] = h[famInfer].Mean() * 1e6
		out["wire"] = max(0, out["wire"]-out["serve"]-out["infer"])
	}
	return out
}
