package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/data"
	"repro/internal/nids"
	"repro/internal/nn"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/store"
)

// env is everything a run prepares before any timing: the workload, its
// fixture artifact, the record pool with the artifact's oracle, and the
// seeded requests and arrival schedule.
type env struct {
	w         workload
	workDir   string
	pool      []data.Record
	path      string // the served artifact's file
	altPath   string // the artifact churn cycles through the shadow slot
	fileBytes []byte
	art       *serve.Artifact // the benchmark's own copy, for replays
	pipe      *data.Pipeline
	oracle    *oracle            // the served artifact's
	oracles   map[string]*oracle // by model version: every artifact served
	batches   []reqBatch
	sched     []time.Duration
	closedFor time.Duration
	source    string // sourceDigest of the checkout being measured
	log       io.Writer
}

// reqBatch is one request's records and their pool indexes.
type reqBatch struct {
	idx  []int
	recs []*data.Record
}

// warmupFor is the untimed closed-loop warm-up before the measured phases.
const warmupFor = time.Second

// openShare is the part of --seconds the open-loop phase is sized for;
// the closed-loop phase gets the rest.
const openShare = 0.5

func prepare(w workload, seed int64, seconds float64, workDir string, log io.Writer) (*env, error) {
	e := &env{w: w, workDir: workDir, log: log, source: sourceDigest(".")}
	gen, err := generatorFor(w.fixture.dataset)
	if err != nil {
		return nil, err
	}
	fixDir := filepath.Join(workDir, "fixtures")
	fmt.Fprintf(log, "perfbench: preparing fixture %s\n", w.fixture.fileName())
	if e.path, err = fixturePath(fixDir, w.fixture); err != nil {
		return nil, err
	}
	if e.fileBytes, err = os.ReadFile(e.path); err != nil {
		return nil, err
	}
	if e.art, err = serve.LoadArtifact(bytes.NewReader(e.fileBytes)); err != nil {
		return nil, err
	}
	e.pool = recordPool(gen, w.pool)
	if e.oracle, err = loadOracle(fixDir, e.art, e.pool, e.source); err != nil {
		return nil, err
	}
	e.oracles = map[string]*oracle{e.oracle.version: e.oracle}
	if w.churn > 0 {
		fmt.Fprintf(log, "perfbench: preparing fixture %s\n", w.alt.fileName())
		if e.altPath, err = fixturePath(fixDir, w.alt); err != nil {
			return nil, err
		}
		b, err := os.ReadFile(e.altPath)
		if err != nil {
			return nil, err
		}
		alt, err := serve.LoadArtifact(bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		o, err := loadOracle(fixDir, alt, e.pool, e.source)
		if err != nil {
			return nil, err
		}
		e.oracles[o.version] = o
	}
	if _, e.pipe, err = e.art.NewNetwork(nn.NewSoftmaxCrossEntropy(), nn.NewRMSprop(0.01)); err != nil {
		return nil, err
	}

	// The seed picks the record order (hence every request's contents)
	// and the arrival times.
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(e.pool))
	for lo := 0; lo+w.recsPerReq <= len(perm); lo += w.recsPerReq {
		b := reqBatch{idx: perm[lo : lo+w.recsPerReq]}
		for _, i := range b.idx {
			b.recs = append(b.recs, &e.pool[i])
		}
		e.batches = append(e.batches, b)
	}
	reqRate := w.rate / float64(w.recsPerReq)
	n := int(reqRate * seconds * openShare)
	e.sched = poissonSchedule(seed, reqRate, max(n, 1))
	e.closedFor = time.Duration(seconds * (1 - openShare) * float64(time.Second))
	return e, nil
}

// openLatencies returns the open-loop latencies the percentiles are taken
// over — those of requests due in blocks within stealBound — and their
// share of the phase's requests.
func (r *passResult) openLatencies(e *env) ([]float64, float64) {
	return cleanLatencies(r.open, e.sched, r.openSteal)
}

// setupSeconds is the median set-up time over the set-ups unstolen keeps.
func (r *passResult) setupSeconds() float64 {
	weight := make([]int, len(r.setupS))
	for i := range weight {
		weight[i] = 1
	}
	var kept []float64
	for i, k := range unstolen(r.setupSteal, weight) {
		if k {
			kept = append(kept, r.setupS[i])
		}
	}
	return median(kept)
}

// lifecycleOp is one timed control-plane call.
type lifecycleOp struct {
	op string
	ms float64
	ok bool
}

// passResult is what one pass (set-up, open loop, closed loop, lifecycle)
// measured.
type passResult struct {
	setupS     []float64
	setupSteal []float64 // the machine's CPU steal share during each set-up
	loadMS     float64   // last set-up's serve.LoadArtifact
	newMS      float64   // last set-up's serve.New
	firstMS    float64   // last set-up's first verdict round trip
	setupFails int

	warmup closedLoopResult
	open   openLoopResult
	closed closedLoopResult
	// openSteal is the machine's CPU steal share in each stealBlock of
	// the open-loop phase.
	openSteal []float64
	ops       []lifecycleOp

	// served holds, per answering model version and pool record, the
	// open-loop verdict it got: detection rates count each distinct
	// (record, version) pair once.
	served     map[string][]atomic.Uint32
	mismatches atomic.Int64

	heapMB, gcCycles, gcPauseMS float64

	// Traced passes only.
	stages                           *scrape // delta over both scoring phases
	wireIn, wireOut, httpIn, httpOut int64
	scoredRecords                    int64
	promotes, rollbacks              int64
	mirrored, mirrorDropped          int64
	replicas                         int
	joined                           map[string]bool // bench request ids with a joined server trace
}

// callRef is the client call span of one HTTP request and the bench
// request id its spans share.
type callRef struct {
	span int64
	req  string
}

// pass is one server lifetime being driven.
type pass struct {
	e   *env
	tr  *tracer
	h   *harness
	res *passResult

	callMu    sync.Mutex
	callSpans map[string]callRef // HTTP request id → its call span
	errMu     sync.Mutex
	errShown  int
}

// runPass sets up setups times (keeping the last server), drives the
// open- and closed-loop phases and the lifecycle ops, and tears down. A
// non-nil tracer makes it a traced pass: server observability on, spans
// recorded, stage histograms scraped.
func runPass(ctx context.Context, e *env, setups int, tr *tracer) (*passResult, error) {
	res := &passResult{served: map[string][]atomic.Uint32{}, joined: map[string]bool{}}
	for version := range e.oracles {
		res.served[version] = make([]atomic.Uint32, len(e.pool))
	}
	p := &pass{e: e, tr: tr, res: res, callSpans: map[string]callRef{}}
	for i := 0; i < setups; i++ {
		runtime.GC() // no round pays for the garbage of the one before
		st0, ok0 := readCPUStat()
		h, err := p.setUp(i)
		if err != nil {
			return nil, err
		}
		st1, ok1 := readCPUStat()
		steal := 0.0
		if ok0 && ok1 {
			steal = stealShare(st0, st1)
		}
		res.setupSteal = append(res.setupSteal, steal)
		if i < setups-1 {
			h.close()
			continue
		}
		p.h = h
	}
	defer p.h.close()

	// Warm up the connections, batcher and replicas on the workload's
	// own traffic, then start the measured phases from a collected heap.
	var next atomic.Int64
	closedIssue := func(phase string) func(ctx context.Context, worker, n int) (int, bool) {
		return func(ctx context.Context, worker, n int) (int, bool) {
			k := int(next.Add(1)) - 1
			b := &e.batches[(len(e.sched)+k)%len(e.batches)]
			if !p.request(phase, k, b, time.Now(), false) {
				return 0, false
			}
			return len(b.recs), true
		}
	}
	res.warmup = runClosedLoop(ctx, e.w.window, warmupFor, closedIssue("warmup"))
	runtime.GC()

	traced := tr != nil
	var before *scrape
	if traced {
		var err error
		if before, err = p.scrape(); err != nil {
			return nil, err
		}
	}
	in0, out0 := p.h.wireIn.Load(), p.h.wireOut.Load()
	hin0, hout0 := p.h.httpIn.Load(), p.h.httpOut.Load()

	shadow := p.h.srv.Registry().StatsFor(registry.Shadow)
	mirrored0, dropped0 := shadow.Mirrored.Load(), shadow.MirrorDropped.Load()

	churnCtx, stopChurn := context.WithCancel(ctx)
	defer stopChurn()
	var churnWG sync.WaitGroup
	if e.w.churn > 0 {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			p.churnLoop(churnCtx)
		}()
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	meter := startStealMeter(stealBlock)
	res.open = runOpenLoop(ctx, e.sched, func(ctx context.Context, i int, due time.Time) bool {
		return p.request("open", i, &e.batches[i%len(e.batches)], due, true)
	})
	res.openSteal = meter.stop()
	runtime.ReadMemStats(&m1)
	res.gcCycles = float64(m1.NumGC - m0.NumGC)
	res.gcPauseMS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	if e.w.churn == 0 {
		res.heapMB = liveHeapMB()
	}

	cpu0 := processCPU()
	res.closed = runClosedLoop(ctx, e.w.window, e.closedFor, closedIssue("closed"))
	res.closed.cpu = processCPU() - cpu0
	stopChurn()
	churnWG.Wait()
	if e.w.churn > 0 {
		// Churn stops on a cycle boundary, so every pass measures the
		// same slot topology: the base artifact live, alt retained.
		res.heapMB = liveHeapMB()
	}
	res.mirrored = shadow.Mirrored.Load() - mirrored0
	res.mirrorDropped = shadow.MirrorDropped.Load() - dropped0

	if traced {
		// Stage histograms live on a generation's scorer. Churn stops
		// with the base artifact live, as it started, so on churn the
		// delta covers the base artifact's share of the scoring.
		after, err := p.scrape()
		if err != nil {
			return nil, err
		}
		res.stages = after.sub(before)
		res.wireIn, res.wireOut = p.h.wireIn.Load()-in0, p.h.wireOut.Load()-out0
		res.httpIn, res.httpOut = p.h.httpIn.Load()-hin0, p.h.httpOut.Load()-hout0
		if err := p.joinServerTraces(); err != nil {
			return nil, err
		}
	}
	res.scoredRecords = int64(res.open.attempted-res.open.failed)*int64(e.w.recsPerReq) + res.closed.records

	p.h.closeClients()
	p.lifecycleCycles()
	res.replicas = p.h.srv.Info().Replicas
	res.promotes = p.h.srv.Registry().Promotes()
	res.rollbacks = p.h.srv.Registry().Rollbacks()
	return res, nil
}

// processCPU is the user and system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB is the heap still in use after a full collection, in MiB.
func liveHeapMB() float64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// setUp builds one server from the artifact's file bytes and times it to
// the first oracle-correct verdict on the workload's scoring plane.
func (p *pass) setUp(iter int) (*harness, error) {
	e := p.e
	start := time.Now()
	var a *serve.Artifact
	var err error
	loadDur := p.tr.timed(0, "serve.LoadArtifact", func() { a, err = serve.LoadArtifact(bytes.NewReader(e.fileBytes)) })
	if err != nil {
		return nil, err
	}
	// The server keeps every default but observability, which only a
	// traced pass turns on, and, for churn, the durable store.
	cfg := serve.Config{ObsOff: p.tr == nil}
	var stateDir string
	if e.w.churn > 0 {
		if stateDir, err = os.MkdirTemp(e.workDir, "state-"); err != nil {
			return nil, err
		}
		p.tr.timed(0, "store.Open", func() { cfg.Store, err = store.Open(stateDir) })
		if err != nil {
			os.RemoveAll(stateDir)
			return nil, err
		}
	}
	h, err := startHarness(a, cfg, p.tr)
	if err != nil {
		os.RemoveAll(stateDir)
		return nil, err
	}
	h.stateDir = stateDir
	var connErr error
	p.tr.timed(0, "bench.connect", func() { connErr = h.connect(e.w) })
	if connErr != nil {
		h.close()
		return nil, connErr
	}
	p.h = h
	firstStart := time.Now()
	ok := p.request("setup", iter, &e.batches[0], firstStart, false)
	end := time.Now()
	p.tr.record(0, "bench.first_verdict", "", firstStart, end)
	if !ok {
		p.res.setupFails++
		h.close()
		return nil, fmt.Errorf("set-up %d: first verdict failed", iter)
	}
	p.res.setupS = append(p.res.setupS, end.Sub(start).Seconds())
	p.res.loadMS, p.res.newMS, p.res.firstMS = ms(loadDur), ms(h.newDur), ms(end.Sub(firstStart))
	return h, nil
}

// request sends one scoring request and checks its verdicts. due is when
// it was scheduled; countDR adds its verdicts to the detection tallies.
func (p *pass) request(phase string, n int, b *reqBatch, due time.Time, countDR bool) bool {
	tr := p.tr
	rid := reqID(phase, n)
	root, call := tr.reserve(), tr.reserve()
	callStart := time.Now()
	verdicts, version, httpID, err := p.h.score(p.e.w.plane, b.recs)
	end := time.Now()
	if tr != nil {
		if httpID != "" {
			p.callMu.Lock()
			p.callSpans[httpID] = callRef{span: call, req: rid}
			p.callMu.Unlock()
		}
		callName := "wire.Client.Score"
		if p.e.w.plane == "http" {
			callName = "serve.Client.Score"
		}
		tr.finish(call, root, callName, rid, callStart, end)
		tr.finish(root, 0, rootRequestSpan, rid, due, end)
	}
	if err != nil {
		p.showError(fmt.Sprintf("%s request %d: %v", phase, n, err))
		return false
	}
	return p.check(b, verdicts, version, countDR)
}

// check compares every verdict with the oracle and records the open-loop
// verdicts the detection rates are computed from.
func (p *pass) check(b *reqBatch, verdicts []nids.Verdict, version string, countDR bool) bool {
	o := p.e.oracles[version]
	if o == nil || len(verdicts) != len(b.idx) {
		p.res.mismatches.Add(1)
		p.showError(fmt.Sprintf("model version %q answered %d verdicts for %d records; want a fixture version", version, len(verdicts), len(b.idx)))
		return false
	}
	ok := true
	for j, i := range b.idx {
		v := verdicts[j]
		if !o.agrees(i, v) {
			ok = false
			p.res.mismatches.Add(1)
			p.showError(fmt.Sprintf("oracle mismatch: pool record %d, version %s served class %d (attack=%v), oracle class %d (margin %.3g)",
				i, version, v.Class, v.IsAttack, o.class[i], o.margin[i]))
		}
	}
	if ok && countDR {
		served := p.res.served[version]
		for j, i := range b.idx {
			flag := uint32(servedNormal)
			if verdicts[j].IsAttack {
				flag = servedAttack
			}
			served[i].Store(flag)
		}
	}
	return ok
}

// Values of passResult.served.
const (
	servedNormal = 1
	servedAttack = 2
)

// detection tallies the open-loop verdicts of distinct (pool record,
// answering version) pairs against their synthetic labels (attack = class
// other than 0). Each workload's open loop sends its whole pool several
// times, so every version that serves for a good share of the phase
// answers every record, and the tally covers the same pairs on every
// seed.
func (r *passResult) detection(e *env) (tp, fn, fp, tn int64) {
	for _, served := range r.served {
		for i := range served {
			v := served[i].Load()
			if v == 0 {
				continue
			}
			attack, flagged := e.pool[i].Label != 0, v == servedAttack
			switch {
			case attack && flagged:
				tp++
			case attack:
				fn++
			case flagged:
				fp++
			default:
				tn++
			}
		}
	}
	return tp, fn, fp, tn
}

// showError prints the first few failures of a pass to the log.
func (p *pass) showError(msg string) {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	p.errShown++
	if p.errShown <= 20 {
		fmt.Fprintln(p.e.log, "perfbench:", msg)
	}
}

// lifecycle performs one control-plane op through the HTTP control client.
func (p *pass) lifecycle(op string) lifecycleOp {
	var err error
	start := time.Now()
	switch op {
	case "load":
		path := p.e.path
		if p.e.w.churn > 0 {
			path = p.e.altPath
		}
		_, err = p.h.control.LoadTag(path, registry.Shadow)
	case "promote":
		_, err = p.h.control.Promote()
	case "rollback":
		_, err = p.h.control.Rollback()
	}
	end := time.Now()
	p.tr.record(0, "serve.Client."+op, "", start, end)
	if err != nil {
		p.showError(fmt.Sprintf("lifecycle %s: %v", op, err))
	}
	return lifecycleOp{op: op, ms: ms(end.Sub(start)), ok: err == nil}
}

// lifecycleOps is one lifecycle cycle: stage an artifact in the shadow
// slot (the served one again, or churn's alternate), promote it, roll
// back.
var lifecycleOps = []string{"load", "promote", "rollback"}

// lifecycleCycles times the workload's lifecycle cycles on the idle server.
func (p *pass) lifecycleCycles() {
	for i := 0; i < p.e.w.swapCycles*len(lifecycleOps); i++ {
		p.res.ops = append(p.res.ops, p.lifecycle(lifecycleOps[i%len(lifecycleOps)]))
	}
}

// churnLoop runs one lifecycle op per tick of the workload's churn
// cadence until ctx ends, then completes the cycle it is in.
func (p *pass) churnLoop(ctx context.Context) {
	t := time.NewTicker(p.e.w.churn)
	defer t.Stop()
	for i := 0; ; i++ {
		if i%len(lifecycleOps) == 0 && ctx.Err() != nil {
			return
		}
		select {
		case <-t.C:
		case <-ctx.Done():
		}
		p.res.ops = append(p.res.ops, p.lifecycle(lifecycleOps[i%len(lifecycleOps)]))
	}
}

func (p *pass) scrape() (*scrape, error) {
	body, err := p.h.metricsText()
	if err != nil {
		return nil, err
	}
	return parseScrape(body, time.Now())
}

// joinServerTraces hangs each HTTP request's server trace, found in
// /debug/traces by its X-Request-Id, under the client call span that
// sent it, with the server's stage spans beneath. The ring keeps only
// the most recent traces, so only those join. Wire requests are not
// joined: the wire client does not expose its frame ids.
func (p *pass) joinServerTraces() error {
	if p.e.w.plane != "http" {
		return nil
	}
	traces, err := p.h.traces()
	if err != nil {
		return err
	}
	for _, t := range traces {
		p.callMu.Lock()
		ref, ok := p.callSpans[t.ID]
		p.callMu.Unlock()
		if !ok {
			continue
		}
		p.res.joined[ref.req] = true
		end := t.Start.Add(time.Duration(t.DurUS) * time.Microsecond)
		handler := p.tr.record(ref.span, "serve.handler", ref.req, t.Start, end)
		for _, s := range t.Spans {
			name := "serve." + s.Name
			if s.Name == "infer" {
				name = "infer.run"
			}
			st := t.Start.Add(time.Duration(s.StartUS) * time.Microsecond)
			p.tr.record(handler, name, ref.req, st, st.Add(time.Duration(s.DurUS)*time.Microsecond))
		}
	}
	return nil
}
