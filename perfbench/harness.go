package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/nids"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wire"
)

// clientTimeout bounds every call the benchmark makes.
const clientTimeout = 10 * time.Second

// countingListener counts the bytes crossing every accepted connection.
type countingListener struct {
	net.Listener
	in, out *atomic.Int64
}

func (cl countingListener) Accept() (net.Conn, error) {
	c, err := cl.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, in: cl.in, out: cl.out}, nil
}

type countingConn struct {
	net.Conn
	in, out *atomic.Int64
}

func (cc countingConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	cc.in.Add(int64(n))
	return n, err
}

func (cc countingConn) Write(p []byte) (int, error) {
	n, err := cc.Conn.Write(p)
	cc.out.Add(int64(n))
	return n, err
}

// harness is one in-process serve.Server with both planes on loopback,
// behind byte-counting listeners, plus the benchmark's clients.
type harness struct {
	srv      *serve.Server
	httpSrv  *http.Server
	baseURL  string
	wireAddr string
	newDur   time.Duration // serve.New
	stateDir string        // the durable store's directory, if any

	httpIn, httpOut, wireIn, wireOut atomic.Int64

	wireCancel context.CancelFunc
	serveWG    sync.WaitGroup

	wireClient *wire.Client
	httpPool   sync.Pool // *serve.Client, one per in-flight request
	httpClient *http.Client
	control    *serve.Client
}

// startHarness serves a with cfg on two fresh loopback listeners.
func startHarness(a *serve.Artifact, cfg serve.Config, tr *tracer) (*harness, error) {
	h := &harness{}
	var srv *serve.Server
	var err error
	h.newDur = tr.timed(0, "serve.New", func() { srv, err = serve.New(a, cfg) })
	if err != nil {
		return nil, err
	}
	h.srv = srv
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		hln.Close()
		srv.Close()
		return nil, err
	}
	h.baseURL = "http://" + hln.Addr().String()
	h.wireAddr = wln.Addr().String()
	h.httpSrv = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: clientTimeout}
	wctx, cancel := context.WithCancel(context.Background())
	h.wireCancel = cancel
	h.serveWG.Add(2)
	go func() {
		defer h.serveWG.Done()
		h.httpSrv.Serve(countingListener{Listener: hln, in: &h.httpIn, out: &h.httpOut})
	}()
	go func() {
		defer h.serveWG.Done()
		srv.ServeWire(wctx, countingListener{Listener: wln, in: &h.wireIn, out: &h.wireOut})
	}()
	return h, nil
}

// connect opens the workload's scoring client (for wire, dialling and
// completing the handshake on every connection) and the HTTP control
// client. Retries and HTTP fallback are off: every failure is counted.
func (h *harness) connect(w workload) error {
	httpConns := w.conns
	if w.plane == "wire" {
		// The control plane is the wire workloads' only HTTP connection.
		httpConns = 1
	}
	h.httpClient = &http.Client{
		Timeout:   clientTimeout,
		Transport: &http.Transport{MaxConnsPerHost: httpConns, MaxIdleConnsPerHost: httpConns},
	}
	h.httpPool.New = func() any {
		return &serve.Client{BaseURL: h.baseURL, HTTP: h.httpClient, MaxAttempts: 1}
	}
	h.control = &serve.Client{BaseURL: h.baseURL, HTTP: h.httpClient, MaxAttempts: 1}
	if w.plane != "wire" {
		return nil
	}
	c := wire.NewClient(h.wireAddr)
	c.Conns = w.conns
	c.MaxAttempts = 1
	c.Timeout = clientTimeout
	if err := c.Connect(); err != nil {
		return fmt.Errorf("wire connect: %w", err)
	}
	h.wireClient = c
	return nil
}

// score sends one scoring request on the workload's plane and returns the
// verdicts, the answering model version and, on HTTP, the request id the
// server traced it under.
func (h *harness) score(plane string, recs []*data.Record) ([]nids.Verdict, string, string, error) {
	if plane == "wire" {
		v, version, err := h.wireClient.Score(recs)
		return v, version, "", err
	}
	cl := h.httpPool.Get().(*serve.Client)
	defer h.httpPool.Put(cl)
	v, version, err := cl.Score(recs)
	return v, version, cl.LastRequestID(), err
}

// closeClients closes the scoring connections, leaving the server up.
func (h *harness) closeClients() {
	if h.wireClient != nil {
		h.wireClient.Close()
		h.wireClient = nil
	}
	if h.httpClient != nil {
		h.httpClient.CloseIdleConnections()
	}
}

// close stops both planes and drains the server. It returns once every
// goroutine the harness started has ended.
func (h *harness) close() {
	h.closeClients()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	h.httpSrv.Shutdown(ctx)
	h.srv.ShutdownWire(ctx)
	h.wireCancel()
	h.serveWG.Wait()
	h.srv.Close()
	if h.stateDir != "" {
		os.RemoveAll(h.stateDir)
	}
}

// metricsText renders the server's /metrics in-process: reading what the
// server exports without opening another connection into it.
func (h *harness) metricsText() (*bytes.Buffer, error) {
	rec := httptest.NewRecorder()
	h.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", rec.Code)
	}
	return rec.Body, nil
}

// traces fetches the server's finished request traces in-process.
func (h *harness) traces() ([]*obs.Trace, error) {
	rec := httptest.NewRecorder()
	h.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces?limit=1000000", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("/debug/traces answered %d", rec.Code)
	}
	return decodeTraces(rec.Body.Bytes())
}
