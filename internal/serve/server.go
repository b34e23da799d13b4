package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/data"
	"repro/internal/nids"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/wire"
)

// Config tunes the scoring server.
type Config struct {
	// Replicas is the number of independent detector replicas (and scoring
	// workers) per model slot. Each replica owns its network buffers and
	// lock, so concurrent batches never contend on one mutex. Default 2.
	Replicas int
	// MaxBatch caps the records in one dynamic batch. Default 32.
	MaxBatch int
	// QueueDepth bounds each slot's record queue; requests block
	// (backpressure) when it fills. Default 1024.
	QueueDepth int
	// MaxBodyBytes caps every POST request body; larger bodies get 413
	// before the decoder buffers them, so one oversized request cannot
	// exhaust server memory. Default 4 MiB (~2000 NSL-KDD-shaped records
	// per batch).
	MaxBodyBytes int64
	// Engine selects the scoring implementation: "f32" (default) runs the
	// compiled float32 inference plan (internal/infer) lowered from the
	// artifact at load time; "f64" runs the float64 training graph through
	// nids.ModelDetector — the A/B escape hatch.
	Engine string
	// MirrorOff disables shadow mirroring: by default, every record scored
	// against the live slot is also (asynchronously, best-effort)
	// duplicated onto the shadow slot when one is loaded with a matching
	// feature layout, accumulating per-slot agreement counters.
	MirrorOff bool
	// MirrorConcurrency bounds how many mirrored requests may be in flight
	// at once; beyond it mirrors are dropped (and counted), never queued —
	// shadow evaluation must not be able to stall live serving. Default 16.
	MirrorConcurrency int
	// RequestTimeout is the scoring deadline budget: each scoring request
	// runs under a context that expires this long after the handler
	// accepts it (clients may shorten — never extend — it per request via
	// the X-Timeout-Ms header). Records whose deadline expires while they
	// wait for queue space or a replica are shed, never scored, and the
	// request answers 503 with Retry-After. Default 5s; negative disables
	// the server-side deadline (requests are then bounded only by client
	// disconnect).
	RequestTimeout time.Duration
	// AdmitWatermark is the admission controller's queue-depth threshold:
	// a scoring request whose slot already has this many records queued is
	// fast-failed with 429 and Retry-After instead of parking the handler
	// goroutine behind a saturated batcher. Default QueueDepth (admit
	// until the queue is actually full); lower it to start shedding before
	// the queue saturates. Negative disables admission control.
	AdmitWatermark int
	// Chaos, when non-nil, injects scoring faults (per-replica added
	// latency) into every slot's workers — the fault-injection seam the
	// chaos e2e suite and -chaos-score-delay drive. Leave nil in
	// production.
	Chaos *chaos.Injector
	// TraceCap bounds the in-memory ring of completed request traces served
	// at /debug/traces (oldest overwritten once full; rounded up to a power
	// of two). Default 512.
	TraceCap int
	// ObsOff disables per-request tracing and per-stage latency timing —
	// the A/B switch for measuring observability overhead. Aggregate
	// counters, the request-latency histogram, and runtime telemetry stay
	// on; /debug/traces answers 404 and the stage histogram families are
	// absent from /metrics.
	ObsOff bool
	// Logger receives structured serving-plane logs (slot lifecycle,
	// request errors); nil silences them.
	Logger *obs.Logger
	// Store, when non-nil, makes the control plane durable: every loaded
	// artifact is persisted to the content-addressed store and every slot
	// lifecycle op is journaled before its caller is answered, so a
	// restarted process recovers the exact slot→version topology (via
	// Recover). Nil disables all persistence — the pre-durability
	// behavior, and the default for tests and embedded use.
	Store *store.Store
	// StatsInterval is how often per-slot counters are checkpointed into
	// the journal (so a crash rewinds them by at most this much). Only
	// meaningful with Store set. Default 5s; negative disables periodic
	// checkpoints (lifecycle ops still carry them).
	StatsInterval time.Duration
	// WirePipeline is the binary transport's per-connection worker count:
	// how many pipelined score frames one wire connection may have in
	// flight through the scoring path at once. Default 8.
	WirePipeline int
}

// Engine values accepted by Config.Engine.
const (
	EngineF32 = "f32"
	EngineF64 = "f64"
)

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Engine == "" {
		c.Engine = EngineF32
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
	}
	if c.MirrorConcurrency <= 0 {
		c.MirrorConcurrency = 16
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.AdmitWatermark == 0 {
		c.AdmitWatermark = c.QueueDepth
	}
	if c.TraceCap <= 0 {
		c.TraceCap = 512
	}
	if c.StatsInterval == 0 {
		c.StatsInterval = 5 * time.Second
	}
	if c.WirePipeline <= 0 {
		c.WirePipeline = 8
	}
	return c
}

// Server is the HTTP scoring service, a multi-model registry of named
// slots (live, shadow, canary tags) each serving one independently loaded
// artifact through its own batcher and replica shard. The /v2 surface is
// the registry API (list, per-tag load/score, shadow→live promotion,
// rollback); the /v1 endpoints are thin delegates onto the live slot, kept
// for existing clients.
//
// Construct with New, mount Handler on an http.Server, and shut down in
// order: stop the listener first (http.Server.Shutdown /
// httptest.Server.Close, which wait for in-flight handlers), then Close to
// drain the batchers and workers.
type Server struct {
	cfg       Config
	reg       *registry.Registry
	m         *serverMetrics
	mux       *http.ServeMux
	traces    *obs.TraceRing // nil under Config.ObsOff
	log       *obs.Logger
	started   time.Time
	draining  atomic.Bool
	adminMu   sync.Mutex // serializes load/reload/promote/rollback/unload
	retireWG  sync.WaitGroup
	mirrorWG  sync.WaitGroup
	mirrorSem chan struct{}
	closed    sync.Once

	// Binary transport plane (see wire.go): the open wire listeners and
	// connections, and the WaitGroup ShutdownWire drains.
	wireMu    sync.Mutex
	wireLns   map[net.Listener]struct{}
	wireConns map[*wireServerConn]struct{}
	wireWG    sync.WaitGroup

	// Durable control plane (nil/zero without Config.Store): the CAS the
	// artifacts persist into, the lifecycle journal, what its replay
	// found, readiness (a servable live slot exists), and the recovery
	// report when the server was built by Recover.
	store      *store.Store
	journal    *store.Log
	replayInfo store.RecoverInfo
	ready      atomic.Bool
	recovery   *RecoveryReport
	statsStop  chan struct{}
	statsWG    sync.WaitGroup
}

// New builds a server with a in its live slot and starts the scoring
// workers. With Config.Store set, New means "start fresh with this
// artifact": any prior journaled topology is discarded (use Recover to
// restore one) and the initial live load is journaled like any other op.
func New(a *Artifact, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	if s.journal != nil {
		if err := s.journal.Reset(store.NewTopology()); err != nil {
			s.closeDurability()
			return nil, err
		}
	}
	if err := s.persistArtifact(a); err != nil {
		s.closeDurability()
		return nil, err
	}
	si, err := s.newInstance(a)
	if err != nil {
		s.closeDurability()
		return nil, err
	}
	if s.store != nil {
		s.store.Retain(a.Version())
	}
	if err := s.reg.Load(registry.Live, si); err != nil {
		s.closeDurability()
		return nil, err
	}
	s.journalAppend(store.OpLoad, registry.Live, a.Version())
	s.ready.Store(true)
	s.log.Info("model loaded", "slot", registry.Live, "version", a.Version(), "model", a.ModelName)
	return s, nil
}

// newServer builds everything but the model slots: metrics, routes, the
// registry with its retire hook, and — with Config.Store — the opened
// (and replayed) journal plus the periodic stats checkpointer. Both New
// and Recover start here.
func newServer(cfg Config) (*Server, error) {
	s := &Server{
		cfg:       cfg,
		m:         newServerMetrics(),
		mux:       http.NewServeMux(),
		log:       cfg.Logger,
		started:   time.Now(),
		mirrorSem: make(chan struct{}, cfg.MirrorConcurrency),
		store:     cfg.Store,
	}
	if !cfg.ObsOff {
		s.traces = obs.NewTraceRing(cfg.TraceCap)
	}
	s.reg = registry.New(func(inst registry.Instance) {
		// A displaced generation drains in the background: requests that
		// already enqueued onto it still get their verdicts (close flushes
		// the queue), and Close waits for these drains before returning.
		// Its CAS reference drops first (synchronously, so a load that
		// displaces a slot can GC the old artifact before returning).
		si := inst.(*slotInstance)
		s.releaseArtifact(si)
		s.retireWG.Add(1)
		go func() {
			defer s.retireWG.Done()
			si.scorer.close()
		}()
	})
	if s.store != nil {
		l, info, err := store.OpenLog(s.store.JournalDir())
		if err != nil {
			return nil, err
		}
		s.journal = l
		s.replayInfo = info
		if cfg.StatsInterval > 0 {
			s.statsStop = make(chan struct{})
			s.statsWG.Add(1)
			go s.statsFlusher()
		}
	}

	s.mux.HandleFunc("/v1/detect", s.handleDetect)
	s.mux.HandleFunc("/v1/detect-batch", s.handleDetectBatch)
	s.mux.HandleFunc("/v1/model", s.handleModel)
	s.mux.HandleFunc("/v1/reload", s.handleReload)
	s.mux.HandleFunc("/v2/models", s.handleModels)
	s.mux.HandleFunc("/v2/models/", s.handleModelTag)
	s.mux.HandleFunc("/v2/load", s.handleLoad)
	s.mux.HandleFunc("/v2/detect", s.handleDetectV2)
	s.mux.HandleFunc("/v2/detect-batch", s.handleDetectBatchV2)
	s.mux.HandleFunc("/v2/promote", s.handlePromote)
	s.mux.HandleFunc("/v2/rollback", s.handleRollback)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/traces", s.handleTraces)
	return s, nil
}

// newInstance builds a ready slot instance (replicas + private batcher)
// for a. Nothing is registered: a failing artifact never disturbs serving.
func (s *Server) newInstance(a *Artifact) (*slotInstance, error) {
	sc, err := newScorer(a, s.cfg, s.m)
	if err != nil {
		return nil, err
	}
	return &slotInstance{
		artifact: a,
		scorer:   sc,
		loadedAt: time.Now(),
		wireFP:   wire.Fingerprint(a.Schema),
	}, nil
}

// slot resolves a tag to its loaded instance.
func (s *Server) slot(tag string) (*slotInstance, bool) {
	inst, _, ok := s.reg.Get(tag)
	if !ok {
		return nil, false
	}
	return inst.(*slotInstance), true
}

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the model registry (read-side: tags, stats, history).
func (s *Server) Registry() *registry.Registry { return s.reg }

// Artifact returns the live slot's artifact.
func (s *Server) Artifact() *Artifact {
	si, ok := s.slot(registry.Live)
	if !ok {
		return nil
	}
	return si.artifact
}

// LoadSlot builds fresh replicas for a and installs them under tag — the
// programmatic form of POST /v2/load. Loading into the live slot requires
// the identical feature layout as the running live model (use the shadow
// slot and Promote for schema evolution); any other tag accepts any valid
// artifact. The displaced generation, if any, finishes its in-flight work
// on its own replicas.
func (s *Server) LoadSlot(tag string, a *Artifact) error {
	if err := registry.ValidateTag(tag); err != nil {
		return err
	}
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	// A version already deployed in some slot shares its artifact (and
	// thus its once-lowered plan) instead of lowering a second copy.
	a = s.dedupeArtifact(a)
	if tag == registry.Live {
		if live, ok := s.slot(registry.Live); ok && !a.Schema.SameFeatures(live.artifact.Schema) {
			return fmt.Errorf("serve: artifact's feature layout differs from the live model's (same-shaped swaps only; load into %q and promote for schema changes)", registry.Shadow)
		}
	}
	// Durability ordering: the artifact must be in the CAS (and retained,
	// so a concurrent retire's GC cannot sweep it) before the registry op
	// that references it.
	if err := s.persistArtifact(a); err != nil {
		return err
	}
	si, err := s.newInstance(a)
	if err != nil {
		return err
	}
	if s.store != nil {
		s.store.Retain(a.Version())
	}
	if err := s.reg.Load(tag, si); err != nil {
		if s.store != nil {
			s.store.Release(a.Version())
		}
		return err
	}
	s.journalAppend(store.OpLoad, tag, a.Version())
	if tag == registry.Live {
		s.ready.Store(true)
	}
	s.m.reloads.Add(1)
	s.log.Info("model loaded", "slot", tag, "version", a.Version(), "model", a.ModelName)
	return nil
}

// Reload atomically swaps a into the live slot — the /v1 compatibility
// form of LoadSlot("live", a). The previous live generation is retained
// for Rollback. In-flight requests finish on the generation they enqueued
// onto; no request is ever dropped.
func (s *Server) Reload(a *Artifact) error { return s.LoadSlot(registry.Live, a) }

// Promote atomically makes the shadow generation live (retaining the
// displaced live for Rollback) and empties the shadow slot. The promoted
// instance keeps its warm replicas and batcher — no rebuild, no lowering,
// no cold start.
func (s *Server) Promote() error {
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	inst, err := s.reg.Promote()
	if err == nil {
		s.journalAppend(store.OpPromote, registry.Live, inst.Version())
		s.ready.Store(true)
		s.log.Info("model promoted", "slot", registry.Live, "version", inst.Version())
	}
	return err
}

// Rollback restores the exact generation (and version) that was live
// before the last promotion or live load. The displaced live becomes the
// new rollback target, so Rollback twice rolls forward again.
func (s *Server) Rollback() error {
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	inst, err := s.reg.Rollback()
	if err == nil {
		s.journalAppend(store.OpRollback, registry.Live, inst.Version())
		s.log.Warn("model rolled back", "slot", registry.Live, "version", inst.Version())
	}
	return err
}

// Unload removes the model under tag (not live) and drains its replicas.
func (s *Server) Unload(tag string) error {
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	si, ok := s.slot(tag)
	if err := s.reg.Unload(tag); err != nil {
		return err
	}
	if ok {
		s.journalAppend(store.OpUnload, tag, si.artifact.Version())
	}
	return nil
}

// BeginDrain makes the server answer new scoring requests with 503 while
// in-flight ones complete — the first step of a graceful shutdown.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close drains and stops every slot's scoring workers. Call it only after
// the HTTP listener has stopped accepting (so no handler can still
// enqueue); queued records — including mirrored ones — are all scored
// before Close returns. With a store configured, a final stats
// checkpoint and a journal compaction land first, so a clean shutdown
// restarts from a one-line snapshot.
func (s *Server) Close() {
	s.closed.Do(func() {
		s.draining.Store(true)
		s.ready.Store(false)
		// Wire connections still open (servers that never called
		// ShutdownWire) are force-closed: their in-flight requests must
		// finish before the scorers tear down.
		s.forceCloseWire()
		s.wireWG.Wait()
		s.closeDurability()
		// Mirror goroutines enqueue onto the shadow scorer; wait for them
		// before tearing the scorers down.
		s.mirrorWG.Wait()
		for _, inst := range s.reg.Drain() {
			inst.(*slotInstance).scorer.close()
		}
		s.retireWG.Wait()
	})
}

// scoreSlot resolves tag, validates the wire records against that slot's
// schema, and scores them on that slot's replicas — one generation end to
// end, under ctx's deadline. The overload path answers before any work
// queues: a slot whose queue is over the admission watermark fast-fails
// the whole request with 429 (records counted as shed), and a deadline
// that expires while records wait for queue space or a replica sheds
// them and answers 503 — both with Retry-After, both leaving /healthz
// untouched. If the slot is swapped mid-request (its scorer closed
// before every record was accepted), the request retries on the
// successor generation; records accepted before a swap are still scored
// by it, so nothing is dropped. On error the returned status is the HTTP
// code to answer.
func (s *Server) scoreSlot(ctx context.Context, tag string, wire []RecordJSON, tr *obs.Trace) ([]nids.Verdict, *slotInstance, int, error) {
	const maxAttempts = 4
	for attempt := 0; attempt < maxAttempts; attempt++ {
		admitStart := time.Now()
		si, ok := s.slot(tag)
		if !ok {
			return nil, nil, http.StatusNotFound, fmt.Errorf("no model loaded under tag %q", tag)
		}
		recs, err := toRecords(si.artifact.Schema, wire)
		if err != nil {
			return nil, nil, http.StatusBadRequest, err
		}
		tr.SetSlot(tag, si.artifact.Version())
		st := s.reg.StatsFor(tag)
		if wm := s.cfg.AdmitWatermark; wm > 0 && si.scorer.queueLen() >= wm {
			st.Shed.Add(int64(len(recs)))
			s.m.shed.Add(int64(len(recs)))
			return nil, nil, http.StatusTooManyRequests,
				fmt.Errorf("slot %q queue is over the admission watermark (%d queued, watermark %d); retry later", tag, si.scorer.queueLen(), wm)
		}
		if attempt == 0 {
			// Resolve + validate + watermark check; later attempts (slot
			// swapped mid-request, rare) are folded into queue_wait.
			tr.Span("admit", admitStart, time.Since(admitStart))
		}
		verdicts := make([]nids.Verdict, len(recs))
		// The expired tally is per attempt: a swap-aborted attempt's sheds
		// are retried wholesale on the successor, so only the attempt that
		// actually answers may account them.
		var expired atomic.Int64
		switch si.scorer.score(ctx, recs, verdicts, &expired, tr) {
		case submitClosed:
			continue // slot swapped mid-request: resolve again
		case submitExpired:
			n := expired.Load()
			st.DeadlineExpired.Add(n)
			s.m.deadlineExpired.Add(n)
			return nil, nil, http.StatusServiceUnavailable,
				fmt.Errorf("deadline expired while queued: %d of %d records shed; retry with more budget", n, len(recs))
		}
		st.Records.Add(int64(len(recs)))
		attacks := int64(0)
		for i := range verdicts {
			if verdicts[i].IsAttack {
				attacks++
			}
		}
		st.Attacks.Add(attacks)
		if tag == registry.Live {
			s.mirror(si, recs, verdicts, tr)
		}
		return verdicts, si, 0, nil
	}
	return nil, nil, http.StatusServiceUnavailable,
		fmt.Errorf("slot %q was replaced %d times mid-request; retry", tag, maxAttempts)
}

// scoreCtx derives the scoring deadline for one request: the handler's
// context (cancelled on client disconnect) bounded by RequestTimeout,
// further shortened — never extended — by an X-Timeout-Ms request header.
// The returned cancel must be called when scoring completes.
func (s *Server) scoreCtx(r *http.Request) (context.Context, context.CancelFunc) {
	budget := s.cfg.RequestTimeout
	if h := r.Header.Get("X-Timeout-Ms"); h != "" {
		if ms, err := strconv.ParseInt(h, 10, 64); err == nil && ms > 0 {
			if d := time.Duration(ms) * time.Millisecond; budget < 0 || d < budget {
				budget = d
			}
		}
	}
	if budget < 0 {
		return context.WithCancel(r.Context())
	}
	return context.WithTimeout(r.Context(), budget)
}

// traceFor assigns the request its ID — honoring an incoming
// X-Request-Id, generating one otherwise — echoes it on the response, and
// (when tracing is enabled) opens the request's trace. Returns nil under
// ObsOff; every consumer of the trace is nil-safe.
func (s *Server) traceFor(w http.ResponseWriter, r *http.Request) *obs.Trace {
	id := r.Header.Get(obs.RequestIDHeader)
	if id == "" {
		id = obs.NewID()
	}
	w.Header().Set(obs.RequestIDHeader, id)
	if s.traces == nil {
		return nil
	}
	return obs.NewTrace(id, r.URL.Path)
}

// putTrace seals tr with the request's outcome and publishes it to the
// /debug/traces ring. Nil traces (ObsOff) are ignored.
func (s *Server) putTrace(tr *obs.Trace, status int, errMsg string) {
	if tr == nil {
		return
	}
	tr.Finish(status, errMsg)
	s.traces.Put(tr)
}

// retryAfter marks an overload rejection as retryable: 429 (admission
// shed) and 503 (deadline shed, drain, swap churn) tell well-behaved
// clients when to come back.
func retryAfter(w http.ResponseWriter, status int) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
}

// mirror duplicates a live request onto the shadow slot, asynchronously
// and best-effort: a missing shadow, a different feature layout, a full
// shadow queue, or more than MirrorConcurrency mirrors already in flight
// all drop the mirror (counted) rather than delay anything. Completed
// mirrors accumulate the shadow slot's records/attacks counters and the
// per-record agreement split against live's verdicts — the side-by-side
// evidence a promotion decision reads. With tracing on, each mirror gets
// its own trace child-linked (ParentID) to the live request that spawned
// it: the mirror outlives the parent's response, so it cannot share the
// parent's sealed trace.
func (s *Server) mirror(live *slotInstance, recs []data.Record, liveVerdicts []nids.Verdict, parent *obs.Trace) {
	if s.cfg.MirrorOff {
		return
	}
	sh, ok := s.slot(registry.Shadow)
	if !ok {
		return
	}
	stats := s.reg.StatsFor(registry.Shadow)
	if !sh.artifact.Schema.SameFeatures(live.artifact.Schema) {
		// A schema-evolving shadow cannot score live-shaped records; it is
		// staged for promotion, not comparison.
		stats.MirrorDropped.Add(int64(len(recs)))
		return
	}
	select {
	case s.mirrorSem <- struct{}{}:
	default:
		stats.MirrorDropped.Add(int64(len(recs)))
		return
	}
	// SameFeatures deliberately ignores class names, so the two models may
	// label incompatible class spaces; comparing raw class indices across
	// them would count two "dos" verdicts as disagreement. Fall back to
	// attack/normal agreement — always comparable — unless the class lists
	// match exactly.
	classComparable := sameClasses(live.artifact.Schema.ClassNames, sh.artifact.Schema.ClassNames)
	var child *obs.Trace
	if s.traces != nil {
		child = obs.NewTrace(obs.NewID(), "mirror")
		if parent != nil {
			child.ParentID = parent.ID
		}
		child.Records = len(recs)
		child.SetSlot(registry.Shadow, sh.artifact.Version())
	}
	s.mirrorWG.Add(1)
	go func() {
		defer func() {
			<-s.mirrorSem
			s.mirrorWG.Done()
		}()
		verdicts := make([]nids.Verdict, len(recs))
		if !sh.scorer.tryScore(recs, verdicts, child) {
			stats.MirrorDropped.Add(int64(len(recs)))
			s.putTrace(child, http.StatusServiceUnavailable, "mirror dropped: shadow queue full or slot swapped")
			return
		}
		s.putTrace(child, http.StatusOK, "")
		stats.Mirrored.Add(int64(len(recs)))
		stats.Records.Add(int64(len(recs)))
		var attacks, agree int64
		for i := range verdicts {
			if verdicts[i].IsAttack {
				attacks++
			}
			if verdicts[i].IsAttack == liveVerdicts[i].IsAttack &&
				(!classComparable || verdicts[i].Class == liveVerdicts[i].Class) {
				agree++
			}
		}
		stats.Attacks.Add(attacks)
		stats.Agreements.Add(agree)
		stats.Disagreements.Add(int64(len(recs)) - agree)
	}()
}

// sameClasses reports whether two class-name lists are identical (same
// labels, same order — i.e. class indices mean the same thing).
func sameClasses(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RecordJSON is the wire form of one flow record.
type RecordJSON struct {
	Numeric     []float64 `json:"numeric"`
	Categorical []string  `json:"categorical"`
}

// VerdictJSON is the wire form of one detector verdict.
type VerdictJSON struct {
	IsAttack  bool    `json:"is_attack"`
	Class     int     `json:"class"`
	ClassName string  `json:"class_name,omitempty"`
	Score     float64 `json:"score"`
}

type detectBatchRequest struct {
	Records []RecordJSON `json:"records"`
}

type detectBatchResponse struct {
	ModelVersion string        `json:"model_version"`
	Tag          string        `json:"tag,omitempty"`
	Verdicts     []VerdictJSON `json:"verdicts"`
}

type detectResponse struct {
	ModelVersion string      `json:"model_version"`
	Tag          string      `json:"tag,omitempty"`
	Verdict      VerdictJSON `json:"verdict"`
}

type errorResponse struct {
	Error string `json:"error"`
	// RequestID echoes the request's trace ID so a client error report can
	// be joined against /debug/traces and the server logs.
	RequestID string `json:"request_id,omitempty"`
}

func (s *Server) httpError(w http.ResponseWriter, status int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	id := w.Header().Get(obs.RequestIDHeader)
	if status >= 500 {
		s.m.requestErrors5xx.Add(1)
		s.log.Warn("request error", "status", status, "request_id", id, "error", msg)
	} else {
		s.m.requestErrors4xx.Add(1)
		s.log.Debug("request rejected", "status", status, "request_id", id, "error", msg)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: msg, RequestID: id})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// decodeBody reads exactly one JSON value from the request body into v,
// capped at cfg.MaxBodyBytes. Oversized bodies answer 413 and malformed or
// trailing-garbage bodies 400 — in both cases the response has been written
// and the caller must return. The cap is installed via http.MaxBytesReader,
// which also closes the connection on overflow so a huge body is not
// drained.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return false
		}
		s.httpError(w, http.StatusBadRequest, "decode request: %v", err)
		return false
	}
	// Reject trailing content after the JSON value: a concatenated second
	// payload silently ignored is a smuggling/confusion hazard. Only a
	// clean EOF is acceptable here.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		s.httpError(w, http.StatusBadRequest, "unexpected data after JSON body")
		return false
	}
	return true
}

// toRecords validates the wire records against the schema and converts
// them. The schema is the resolved slot's own — validation and scoring
// always use the same generation, so a concurrent swap can never mis-pair
// a record with a different encoder.
func toRecords(schema data.Schema, in []RecordJSON) ([]data.Record, error) {
	nNum, nCat := schema.NumNumeric(), len(schema.Categorical)
	out := make([]data.Record, len(in))
	for i, r := range in {
		if len(r.Numeric) != nNum {
			return nil, fmt.Errorf("record %d: %d numeric values, model expects %d", i, len(r.Numeric), nNum)
		}
		if len(r.Categorical) != nCat {
			return nil, fmt.Errorf("record %d: %d categorical values, model expects %d", i, len(r.Categorical), nCat)
		}
		out[i] = data.Record{Numeric: r.Numeric, Categorical: r.Categorical}
	}
	return out, nil
}

func toVerdictsJSON(schema data.Schema, vs []nids.Verdict) []VerdictJSON {
	out := make([]VerdictJSON, len(vs))
	for i, v := range vs {
		vj := VerdictJSON{IsAttack: v.IsAttack, Class: v.Class, Score: v.Score}
		if v.Class >= 0 && v.Class < len(schema.ClassNames) {
			vj.ClassName = schema.ClassNames[v.Class]
		}
		out[i] = vj
	}
	return out
}

// acceptScoring centralizes method/drain gating for the scoring endpoints.
func (s *Server) acceptScoring(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		s.httpError(w, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	if s.draining.Load() {
		retryAfter(w, http.StatusServiceUnavailable)
		s.httpError(w, http.StatusServiceUnavailable, "server is draining")
		return false
	}
	return true
}

// scoreTag reads ?tag= (default live).
func scoreTag(r *http.Request) string {
	if tag := r.URL.Query().Get("tag"); tag != "" {
		return tag
	}
	return registry.Live
}

// handleDetect is POST /v1/detect: score one record on the live slot.
func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	s.detectOn(w, r, registry.Live, "")
}

// handleDetectV2 is POST /v2/detect?tag=: score one record on any slot.
func (s *Server) handleDetectV2(w http.ResponseWriter, r *http.Request) {
	tag := scoreTag(r)
	s.detectOn(w, r, tag, tag)
}

// detectOn scores one record on tag. echoTag, when non-empty, is included
// in the response (the /v2 shape; /v1 responses stay byte-compatible).
func (s *Server) detectOn(w http.ResponseWriter, r *http.Request, tag, echoTag string) {
	if !s.acceptScoring(w, r) {
		return
	}
	s.m.detectRequests.Add(1)
	start := time.Now()
	tr := s.traceFor(w, r)
	var rec RecordJSON
	if !s.decodeBody(w, r, &rec) {
		s.putTrace(tr, http.StatusBadRequest, "bad request body")
		return
	}
	if tr != nil {
		tr.Records = 1
	}
	ctx, cancel := s.scoreCtx(r)
	defer cancel()
	verdicts, si, status, err := s.scoreSlot(ctx, tag, []RecordJSON{rec}, tr)
	if err != nil {
		retryAfter(w, status)
		s.httpError(w, status, "%v", err)
		s.putTrace(tr, status, err.Error())
		return
	}
	s.m.records.Add(1)
	encStart := time.Now()
	writeJSON(w, detectResponse{
		ModelVersion: si.artifact.Version(),
		Tag:          echoTag,
		Verdict:      toVerdictsJSON(si.artifact.Schema, verdicts)[0],
	})
	s.finishScored(tr, si, encStart, 1)
	s.m.observeLatency(time.Since(start))
}

// handleDetectBatch is POST /v1/detect-batch: score records on the live slot.
func (s *Server) handleDetectBatch(w http.ResponseWriter, r *http.Request) {
	s.detectBatchOn(w, r, registry.Live, "")
}

// handleDetectBatchV2 is POST /v2/detect-batch?tag=.
func (s *Server) handleDetectBatchV2(w http.ResponseWriter, r *http.Request) {
	tag := scoreTag(r)
	s.detectBatchOn(w, r, tag, tag)
}

func (s *Server) detectBatchOn(w http.ResponseWriter, r *http.Request, tag, echoTag string) {
	if !s.acceptScoring(w, r) {
		return
	}
	s.m.batchRequests.Add(1)
	start := time.Now()
	tr := s.traceFor(w, r)
	var req detectBatchRequest
	if !s.decodeBody(w, r, &req) {
		s.putTrace(tr, http.StatusBadRequest, "bad request body")
		return
	}
	if len(req.Records) == 0 {
		s.httpError(w, http.StatusBadRequest, "empty records")
		s.putTrace(tr, http.StatusBadRequest, "empty records")
		return
	}
	if tr != nil {
		tr.Records = len(req.Records)
	}
	ctx, cancel := s.scoreCtx(r)
	defer cancel()
	verdicts, si, status, err := s.scoreSlot(ctx, tag, req.Records, tr)
	if err != nil {
		retryAfter(w, status)
		s.httpError(w, status, "%v", err)
		s.putTrace(tr, status, err.Error())
		return
	}
	s.m.records.Add(int64(len(verdicts)))
	encStart := time.Now()
	writeJSON(w, detectBatchResponse{
		ModelVersion: si.artifact.Version(),
		Tag:          echoTag,
		Verdicts:     toVerdictsJSON(si.artifact.Schema, verdicts),
	})
	s.finishScored(tr, si, encStart, len(verdicts))
	s.m.observeLatency(time.Since(start))
}

// finishScored closes out one successfully scored request: the encode
// stage observation on the answering slot's histograms, the encode span,
// and publication of the sealed trace.
func (s *Server) finishScored(tr *obs.Trace, si *slotInstance, encStart time.Time, records int) {
	encDur := time.Since(encStart)
	if st := si.scorer.stages; st != nil {
		st.encode.ObserveDuration(encDur)
	}
	if tr == nil {
		return
	}
	tr.Span("encode", encStart, encDur)
	s.putTrace(tr, http.StatusOK, "")
	if s.log.Enabled(obs.LevelDebug) {
		s.log.Debug("request scored", "request_id", tr.ID, "endpoint", tr.Endpoint,
			"slot", tr.Slot, "version", tr.Version, "records", records,
			"dur", time.Since(tr.Start))
	}
}

// ModelInfo describes one loaded model slot.
type ModelInfo struct {
	Model   string `json:"model"`
	Version string `json:"version"`
	Engine  string `json:"engine"`
	// Tag is the slot this description refers to (on /v2 responses).
	Tag string `json:"tag,omitempty"`
	// PreviousVersion is the retained rollback generation (live slot only).
	PreviousVersion string   `json:"previous_version,omitempty"`
	Features        int      `json:"features"`
	Classes         int      `json:"classes"`
	ClassNames      []string `json:"class_names"`
	Replicas        int      `json:"replicas"`
	MaxBatch        int      `json:"max_batch"`
	LoadedAt        string   `json:"loaded_at"`
}

// SlotStatsJSON is the wire form of a slot's scoring counters.
type SlotStatsJSON struct {
	Records         int64 `json:"records"`
	Attacks         int64 `json:"attacks"`
	Mirrored        int64 `json:"mirrored"`
	MirrorDropped   int64 `json:"mirror_dropped"`
	Agreements      int64 `json:"agreements"`
	Disagreements   int64 `json:"disagreements"`
	Shed            int64 `json:"shed"`
	DeadlineExpired int64 `json:"deadline_expired"`
}

// SlotInfo is one /v2/models entry: the slot's model plus its counters.
type SlotInfo struct {
	ModelInfo
	Stats SlotStatsJSON `json:"stats"`
}

// TransitionJSON is one lifecycle history entry.
type TransitionJSON struct {
	Op      string `json:"op"`
	Tag     string `json:"tag"`
	Version string `json:"version"`
	At      string `json:"at"`
}

// ModelsResponse is the /v2/models body: every occupied slot, the retained
// rollback generation, lifecycle counters, and recent history.
type ModelsResponse struct {
	Slots     []SlotInfo       `json:"slots"`
	Previous  *ModelInfo       `json:"previous,omitempty"`
	Promotes  int64            `json:"promotes"`
	Rollbacks int64            `json:"rollbacks"`
	History   []TransitionJSON `json:"history"`
}

// infoFor renders si as it is mounted under tag.
func (s *Server) infoFor(tag string, si *slotInstance) ModelInfo {
	info := ModelInfo{
		Model:      si.artifact.ModelName,
		Version:    si.artifact.Version(),
		Engine:     s.cfg.Engine,
		Tag:        tag,
		Features:   si.artifact.Features(),
		Classes:    si.artifact.Classes(),
		ClassNames: si.artifact.Schema.ClassNames,
		Replicas:   s.cfg.Replicas,
		MaxBatch:   s.cfg.MaxBatch,
		LoadedAt:   si.loadedAt.UTC().Format(time.RFC3339),
	}
	if tag == registry.Live {
		info.PreviousVersion = s.reg.PreviousVersion()
	}
	return info
}

// Info returns the live model's description (the /v1 shape: no tag).
func (s *Server) Info() ModelInfo {
	info, _ := s.InfoTag(registry.Live)
	info.Tag = ""
	return info
}

// InfoTag returns the description of the model under tag.
func (s *Server) InfoTag(tag string) (ModelInfo, error) {
	si, ok := s.slot(tag)
	if !ok {
		return ModelInfo{}, fmt.Errorf("no model loaded under tag %q", tag)
	}
	return s.infoFor(tag, si), nil
}

// Models returns the full registry listing (the /v2/models body).
func (s *Server) Models() ModelsResponse {
	resp := ModelsResponse{
		Promotes:  s.reg.Promotes(),
		Rollbacks: s.reg.Rollbacks(),
	}
	for _, tag := range s.reg.Tags() {
		si, ok := s.slot(tag)
		if !ok {
			continue // unloaded between Tags() and here
		}
		st := s.reg.StatsFor(tag)
		resp.Slots = append(resp.Slots, SlotInfo{
			ModelInfo: s.infoFor(tag, si),
			Stats: SlotStatsJSON{
				Records:         st.Records.Load(),
				Attacks:         st.Attacks.Load(),
				Mirrored:        st.Mirrored.Load(),
				MirrorDropped:   st.MirrorDropped.Load(),
				Agreements:      st.Agreements.Load(),
				Disagreements:   st.Disagreements.Load(),
				Shed:            st.Shed.Load(),
				DeadlineExpired: st.DeadlineExpired.Load(),
			},
		})
	}
	if si, ok := s.slot(registry.Previous); ok {
		info := s.infoFor(registry.Previous, si)
		resp.Previous = &info
	}
	for _, tr := range s.reg.History() {
		resp.History = append(resp.History, TransitionJSON{
			Op: string(tr.Op), Tag: tr.Tag, Version: tr.Version,
			At: tr.At.UTC().Format(time.RFC3339),
		})
	}
	return resp
}

// handleModel is GET /v1/model: the live slot's description.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Info())
}

// handleModels is GET /v2/models: the registry listing.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, s.Models())
}

// handleModelTag is /v2/models/{tag}: GET describes the slot, DELETE
// unloads it (live cannot be unloaded).
func (s *Server) handleModelTag(w http.ResponseWriter, r *http.Request) {
	tag := strings.TrimPrefix(r.URL.Path, "/v2/models/")
	if tag == "" || strings.Contains(tag, "/") {
		s.httpError(w, http.StatusNotFound, "want /v2/models/{tag}")
		return
	}
	switch r.Method {
	case http.MethodGet:
		info, err := s.InfoTag(tag)
		if err != nil {
			s.httpError(w, http.StatusNotFound, "%v", err)
			return
		}
		writeJSON(w, info)
	case http.MethodDelete:
		if tag == registry.Live {
			s.httpError(w, http.StatusConflict, "cannot unload the live slot")
			return
		}
		if err := s.Unload(tag); err != nil {
			s.httpError(w, http.StatusNotFound, "%v", err)
			return
		}
		writeJSON(w, s.Models())
	default:
		s.httpError(w, http.StatusMethodNotAllowed, "GET or DELETE required")
	}
}

type loadRequest struct {
	Path string `json:"path"`
	Tag  string `json:"tag"`
}

// handleLoad is POST /v2/load?tag= (or {"path": ..., "tag": ...}): load an
// artifact file into a slot. The tag defaults to shadow — the staging slot
// gated promotion operates on.
func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req loadRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Path == "" {
		s.httpError(w, http.StatusBadRequest, "body must be {\"path\": \"artifact file\", \"tag\": \"slot\"}")
		return
	}
	tag := req.Tag
	if qt := r.URL.Query().Get("tag"); qt != "" {
		tag = qt
	}
	if tag == "" {
		tag = registry.Shadow
	}
	if err := registry.ValidateTag(tag); err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	a, err := LoadArtifactFile(req.Path)
	if err != nil {
		s.httpError(w, http.StatusUnprocessableEntity, "load artifact: %v", err)
		return
	}
	if err := s.LoadSlot(tag, a); err != nil {
		s.httpError(w, http.StatusConflict, "load %q: %v", tag, err)
		return
	}
	info, err := s.InfoTag(tag)
	if err != nil {
		// The slot was displaced between load and read-back; report the
		// registry state rather than failing the successful load.
		writeJSON(w, s.Models())
		return
	}
	writeJSON(w, info)
}

type reloadRequest struct {
	Path string `json:"path"`
}

// handleReload is POST /v1/reload: load an artifact file into the live
// slot. Kept as a thin delegate for existing clients; /v2/load is the
// registry-aware form.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req reloadRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Path == "" {
		s.httpError(w, http.StatusBadRequest, "body must be {\"path\": \"artifact file\"}")
		return
	}
	a, err := LoadArtifactFile(req.Path)
	if err != nil {
		s.httpError(w, http.StatusUnprocessableEntity, "load artifact: %v", err)
		return
	}
	if err := s.Reload(a); err != nil {
		s.httpError(w, http.StatusConflict, "reload: %v", err)
		return
	}
	writeJSON(w, s.Info())
}

// handlePromote is POST /v2/promote: shadow becomes live atomically; the
// displaced live is retained for rollback.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if err := s.Promote(); err != nil {
		s.httpError(w, http.StatusConflict, "%v", err)
		return
	}
	info, _ := s.InfoTag(registry.Live)
	writeJSON(w, info)
}

// handleRollback is POST /v2/rollback: restore the generation displaced by
// the last promotion or live load.
func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if err := s.Rollback(); err != nil {
		s.httpError(w, http.StatusConflict, "%v", err)
		return
	}
	info, _ := s.InfoTag(registry.Live)
	writeJSON(w, info)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	model, version := "", ""
	if si, ok := s.slot(registry.Live); ok {
		model, version = si.artifact.ModelName, si.artifact.Version()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(struct {
		Status  string `json:"status"`
		Model   string `json:"model"`
		Version string `json:"version"`
	}{status, model, version})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var slots []slotMetrics
	queueDepth := 0
	for _, tag := range s.reg.Tags() {
		si, ok := s.slot(tag)
		if !ok {
			continue
		}
		q := si.scorer.queueLen()
		queueDepth += q
		slots = append(slots, slotMetrics{
			tag:     tag,
			model:   si.artifact.ModelName,
			version: si.artifact.Version(),
			queue:   q,
			stats:   s.reg.StatsFor(tag),
			stages:  si.scorer.stages,
		})
	}
	var storeStats *store.Stats
	if s.store != nil {
		st := s.store.Stats()
		storeStats = &st
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.m.writeProm(w, promSnapshot{
		queueDepth:      queueDepth,
		slots:           slots,
		promotes:        s.reg.Promotes(),
		rollbacks:       s.reg.Rollbacks(),
		previousVersion: s.reg.PreviousVersion(),
		started:         s.started,
		store:           storeStats,
		recovery:        s.recovery,
	})
}

// tracesResponse is the /debug/traces body.
type tracesResponse struct {
	Count  int          `json:"count"`
	Traces []*obs.Trace `json:"traces"`
}

// handleTraces is GET /debug/traces: the ring of completed request traces
// as JSON, newest first. Query parameters: ?slowest=N returns the N
// slowest held traces instead of the newest; ?errors=1 keeps only failed
// requests (status >= 400); ?slot= filters by the serving slot;
// ?limit=N caps the response size (default 64).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if s.traces == nil {
		s.httpError(w, http.StatusNotFound, "tracing is disabled (server started with observability off)")
		return
	}
	traces := s.traces.Snapshot()
	q := r.URL.Query()
	if slot := q.Get("slot"); slot != "" {
		traces = filterTraces(traces, func(t *obs.Trace) bool { return t.Slot == slot })
	}
	if e := q.Get("errors"); e == "1" || e == "true" {
		traces = filterTraces(traces, func(t *obs.Trace) bool { return t.Status >= 400 || t.Error != "" })
	}
	limit := 64
	if n, err := strconv.Atoi(q.Get("limit")); err == nil && n > 0 {
		limit = n
	}
	if n, err := strconv.Atoi(q.Get("slowest")); err == nil && n > 0 {
		sort.SliceStable(traces, func(i, j int) bool { return traces[i].DurUS > traces[j].DurUS })
		limit = n
	}
	if len(traces) > limit {
		traces = traces[:limit]
	}
	writeJSON(w, tracesResponse{Count: len(traces), Traces: traces})
}

func filterTraces(in []*obs.Trace, keep func(*obs.Trace) bool) []*obs.Trace {
	out := in[:0:0]
	for _, t := range in {
		if keep(t) {
			out = append(out, t)
		}
	}
	return out
}
