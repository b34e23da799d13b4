package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/wire"
)

// The transport A/B: one in-process scoring server exposing both planes
// (HTTP/JSON and the binary wire protocol), driven back to back by
// equal-concurrency load at equal batch size on equal hardware. Both
// transports land on the same per-slot batcher/scorer path, so any
// difference is pure transport tax: JSON encode/decode and per-request
// HTTP framing vs packed little-endian frames on persistent pipelined
// connections. Bytes on the wire are measured at the server's listeners
// (headers included), not estimated.

// TransportBenchRow is one transport's measurement.
type TransportBenchRow struct {
	Transport      string  `json:"transport"`
	Requests       int64   `json:"requests"`
	Records        int64   `json:"records"`
	Shed           int64   `json:"shed"`
	Errors         int64   `json:"errors"`
	RecordsPerSec  float64 `json:"records_per_sec"`
	RequestsPerSec float64 `json:"requests_per_sec"`
	P50US          float64 `json:"p50_us"`
	P95US          float64 `json:"p95_us"`
	P99US          float64 `json:"p99_us"`
	// Bytes per scored record as observed on the server's own listener,
	// request (in) and response (out) directions, framing included.
	BytesInPerRecord  float64 `json:"bytes_in_per_record"`
	BytesOutPerRecord float64 `json:"bytes_out_per_record"`
}

// TransportBenchResult is what pelican-bench -exp transport reports and
// serializes (BENCH_transport.json).
type TransportBenchResult struct {
	Model       string              `json:"model"`
	Dataset     string              `json:"dataset"`
	Features    int                 `json:"features"`
	Classes     int                 `json:"classes"`
	Batch       int                 `json:"batch"`
	Concurrency int                 `json:"concurrency"`
	DurationS   float64             `json:"duration_s"`
	Rows        []TransportBenchRow `json:"rows"`
	// SpeedupWire is wire records/s over HTTP records/s.
	SpeedupWire float64 `json:"speedup_wire"`
	// VerdictsAgree reports the parity check: the same batch scored
	// through both transports produced identical verdicts.
	VerdictsAgree bool `json:"verdicts_agree"`
}

// countingListener measures bytes crossing accepted connections in both
// directions — the ground truth for bytes-on-wire per record.
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

// transportWindow is how long each transport is driven. Long enough for
// the batcher and connection pools to reach steady state; the Tiny
// profiles shrink it so the CI smoke stays fast.
func transportWindow(p Profile) time.Duration {
	if p.Tiny {
		return 500 * time.Millisecond
	}
	return 2 * time.Second
}

// RunTransportBench trains a small model, serves it over both planes,
// and measures HTTP/JSON against the binary wire transport.
func RunTransportBench(p Profile, log io.Writer) (*TransportBenchResult, error) {
	const batch, concurrency = 16, 8
	gen, err := synth.New(synth.NSLKDDConfig())
	if err != nil {
		return nil, err
	}
	nrec := 600
	if p.Records > 0 && p.Records < nrec {
		nrec = p.Records
	}
	if log != nil {
		fmt.Fprintf(log, "transport-bench: training mlp on %d nsl-kdd records\n", nrec)
	}
	ds := gen.Generate(nrec, p.Seed)
	x, y, pipe := data.Preprocess(ds)
	features := gen.Schema().EncodedWidth()
	classes := gen.Schema().NumClasses()
	rng := rand.New(rand.NewSource(p.Seed))
	stack := models.BuildMLP(rng, rand.New(rand.NewSource(p.Seed+1)), features, classes)
	opt := nn.NewRMSprop(0.01)
	opt.MaxNorm = 5
	mdl := nn.NewNetwork(stack, nn.NewSoftmaxCrossEntropy(), opt)
	mdl.Fit(x.Reshape(x.Dim(0), 1, x.Dim(1)), y, nn.FitConfig{Epochs: 2, BatchSize: 128, Shuffle: true, RNG: rng})
	a, err := serve.NewArtifact("mlp", models.PaperBlockConfig(features), gen.Schema(), pipe, mdl)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(a, serve.Config{Replicas: 2, MaxBatch: 64, ObsOff: true})
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	// Both planes on loopback, each behind its own byte-counting listener.
	var httpIn, httpOut, wireIn, wireOut atomic.Int64
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(countingListener{Listener: hln, in: &httpIn, out: &httpOut})
	defer httpSrv.Close()
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	wireCtx, wireCancel := context.WithCancel(context.Background())
	defer wireCancel()
	go srv.ServeWire(wireCtx, countingListener{Listener: wln, in: &wireIn, out: &wireOut})

	baseURL := "http://" + hln.Addr().String()
	window := transportWindow(p)
	res := &TransportBenchResult{
		Model: "mlp", Dataset: "nsl-kdd", Features: features, Classes: classes,
		Batch: batch, Concurrency: concurrency, DurationS: window.Seconds(),
	}

	// The drive set cycles a fixed pool of synthetic flows. Both hot loops
	// encode from the same prepared batches inside the timed window — the
	// client-side encode (json.Marshal vs packed append) is part of each
	// transport's tax, charged symmetrically; only flow generation and
	// request-struct assembly stay outside.
	drive := gen.Generate(512, p.Seed+2)
	var httpReqs []*httpBatchRequest
	var wireBatches [][]*data.Record
	for lo := 0; lo+batch <= len(drive.Records); lo += batch {
		req := &httpBatchRequest{Records: make([]serve.RecordJSON, 0, batch)}
		recs := make([]*data.Record, 0, batch)
		for j := lo; j < lo+batch; j++ {
			req.Records = append(req.Records, serve.RecordJSON{
				Numeric: drive.Records[j].Numeric, Categorical: drive.Records[j].Categorical,
			})
			recs = append(recs, &drive.Records[j])
		}
		httpReqs = append(httpReqs, req)
		wireBatches = append(wireBatches, recs)
	}

	// HTTP leg.
	if log != nil {
		fmt.Fprintf(log, "transport-bench: driving http/json for %s\n", window)
	}
	httpRow, httpVerdicts, err := driveHTTP(baseURL, httpReqs, batch, concurrency, window)
	if err != nil {
		return nil, err
	}
	httpRow.BytesInPerRecord = perRecord(httpIn.Load(), httpRow.Records)
	httpRow.BytesOutPerRecord = perRecord(httpOut.Load(), httpRow.Records)
	res.Rows = append(res.Rows, httpRow)

	// Wire leg.
	if log != nil {
		fmt.Fprintf(log, "transport-bench: driving wire for %s\n", window)
	}
	wireIn.Store(0)
	wireOut.Store(0)
	wireRow, wireVerdicts, err := driveWire(wln.Addr().String(), wireBatches, concurrency, window)
	if err != nil {
		return nil, err
	}
	wireRow.BytesInPerRecord = perRecord(wireIn.Load(), wireRow.Records)
	wireRow.BytesOutPerRecord = perRecord(wireOut.Load(), wireRow.Records)
	res.Rows = append(res.Rows, wireRow)

	if httpRow.RecordsPerSec > 0 {
		res.SpeedupWire = wireRow.RecordsPerSec / httpRow.RecordsPerSec
	}
	res.VerdictsAgree = verdictsEqual(httpVerdicts, wireVerdicts)
	return res, nil
}

func perRecord(bytes, records int64) float64 {
	if records == 0 {
		return 0
	}
	return float64(bytes) / float64(records)
}

// verdictPair is the transport-independent part of a verdict, for the
// parity check.
type verdictPair struct {
	attack bool
	class  int
}

func verdictsEqual(a, b []verdictPair) bool {
	if len(a) == 0 || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// httpBatchRequest is the pre-assembled request struct one HTTP call
// marshals inside the timed loop.
type httpBatchRequest struct {
	Records []serve.RecordJSON `json:"records"`
}

// driveHTTP hammers /v1/detect-batch, marshaling each request in the
// timed loop (the client-side JSON encode is part of the transport's
// cost), and returns the row plus the first batch's verdicts for the
// parity check.
func driveHTTP(baseURL string, reqs []*httpBatchRequest, batch, concurrency int, window time.Duration) (TransportBenchRow, []verdictPair, error) {
	row := TransportBenchRow{Transport: "http"}
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        concurrency * 2,
			MaxIdleConnsPerHost: concurrency * 2,
		},
	}
	// Parity sample first, outside the timed window.
	parityBody, err := json.Marshal(reqs[0])
	if err != nil {
		return row, nil, err
	}
	parity, err := httpScore(client, baseURL, parityBody, batch)
	if err != nil {
		return row, nil, fmt.Errorf("http parity request: %w", err)
	}

	var mu sync.Mutex
	var lat []time.Duration
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	var requests, records, shed, errs atomic.Int64
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local []time.Duration
			for i := w; time.Now().Before(deadline); i++ {
				start := time.Now()
				b, err := json.Marshal(reqs[i%len(reqs)])
				if err != nil {
					errs.Add(1)
					continue
				}
				resp, err := client.Post(baseURL+"/v1/detect-batch", "application/json", bytes.NewReader(b))
				if err != nil {
					errs.Add(1)
					continue
				}
				if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					shed.Add(1)
					continue
				}
				var br struct {
					Verdicts []serve.VerdictJSON `json:"verdicts"`
				}
				decErr := json.NewDecoder(resp.Body).Decode(&br)
				resp.Body.Close()
				if decErr != nil || resp.StatusCode != http.StatusOK || len(br.Verdicts) != batch {
					errs.Add(1)
					continue
				}
				local = append(local, time.Since(start))
				requests.Add(1)
				records.Add(int64(len(br.Verdicts)))
			}
			mu.Lock()
			lat = append(lat, local...)
			mu.Unlock()
		}(w)
	}
	start := time.Now()
	wg.Wait()
	fillRow(&row, requests.Load(), records.Load(), shed.Load(), errs.Load(), lat, time.Since(start), window)
	return row, parity, nil
}

func httpScore(client *http.Client, baseURL string, body []byte, batch int) ([]verdictPair, error) {
	resp, err := client.Post(baseURL+"/v1/detect-batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var br struct {
		Verdicts []serve.VerdictJSON `json:"verdicts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		return nil, err
	}
	if len(br.Verdicts) != batch {
		return nil, fmt.Errorf("got %d verdicts, want %d", len(br.Verdicts), batch)
	}
	out := make([]verdictPair, len(br.Verdicts))
	for i, v := range br.Verdicts {
		out[i] = verdictPair{attack: v.IsAttack, class: v.Class}
	}
	return out, nil
}

// driveWire hammers the binary plane with the same batches at the same
// concurrency through one multiplexed client.
func driveWire(addr string, batches [][]*data.Record, concurrency int, window time.Duration) (TransportBenchRow, []verdictPair, error) {
	row := TransportBenchRow{Transport: "wire"}
	wc := wire.NewClient(addr)
	wc.Conns = concurrency
	if wc.Conns > 8 {
		wc.Conns = 8
	}
	if err := wc.Connect(); err != nil {
		return row, nil, fmt.Errorf("connect wire %s: %w", addr, err)
	}
	defer wc.Close()

	pv, _, err := wc.Score(batches[0])
	if err != nil {
		return row, nil, fmt.Errorf("wire parity request: %w", err)
	}
	parity := make([]verdictPair, len(pv))
	for i, v := range pv {
		parity[i] = verdictPair{attack: v.IsAttack, class: v.Class}
	}

	var mu sync.Mutex
	var lat []time.Duration
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	var requests, records, shed, errs atomic.Int64
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local []time.Duration
			for i := w; time.Now().Before(deadline); i++ {
				b := batches[i%len(batches)]
				start := time.Now()
				verdicts, _, err := wc.Score(b)
				if err != nil {
					if _, ok := wire.ShedStatus(err); ok {
						shed.Add(1)
					} else {
						errs.Add(1)
					}
					continue
				}
				local = append(local, time.Since(start))
				requests.Add(1)
				records.Add(int64(len(verdicts)))
			}
			mu.Lock()
			lat = append(lat, local...)
			mu.Unlock()
		}(w)
	}
	start := time.Now()
	wg.Wait()
	fillRow(&row, requests.Load(), records.Load(), shed.Load(), errs.Load(), lat, time.Since(start), window)
	return row, parity, nil
}

func fillRow(row *TransportBenchRow, requests, records, shed, errs int64, lat []time.Duration, elapsed, window time.Duration) {
	if elapsed > window {
		elapsed = window
	}
	row.Requests = requests
	row.Records = records
	row.Shed = shed
	row.Errors = errs
	if s := elapsed.Seconds(); s > 0 {
		row.RecordsPerSec = float64(records) / s
		row.RequestsPerSec = float64(requests) / s
	}
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		pct := func(p float64) float64 {
			return float64(lat[int(p*float64(len(lat)-1))].Microseconds())
		}
		row.P50US = pct(0.50)
		row.P95US = pct(0.95)
		row.P99US = pct(0.99)
	}
}

// FormatTransportBench renders the A/B table.
func FormatTransportBench(r *TransportBenchResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TRANSPORT A/B — %s on %s (%d features, batch %d, %d clients, %.1fs per leg)\n",
		r.Model, r.Dataset, r.Features, r.Batch, r.Concurrency, r.DurationS)
	fmt.Fprintf(&b, "%-6s %12s %10s %9s %9s %9s %10s %10s %6s %6s\n",
		"plane", "records/s", "req/s", "p50", "p95", "p99", "B/rec in", "B/rec out", "shed", "errs")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-6s %12.0f %10.0f %8.0fµ %8.0fµ %8.0fµ %10.1f %10.1f %6d %6d\n",
			row.Transport, row.RecordsPerSec, row.RequestsPerSec,
			row.P50US, row.P95US, row.P99US,
			row.BytesInPerRecord, row.BytesOutPerRecord, row.Shed, row.Errors)
	}
	if r.SpeedupWire > 0 {
		fmt.Fprintf(&b, "wire speedup: %.2fx records/s; verdict parity: %v\n", r.SpeedupWire, r.VerdictsAgree)
	}
	return b.String()
}
