package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/registry"
)

// getBody GETs url and returns the status and body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// waitQueueLen polls the live slot's queue until it holds at least n
// records or the deadline passes.
func waitQueueLen(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		si, ok := srv.slot(registry.Live)
		if ok && si.scorer.queueLen() >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue never reached %d records", n)
}

// TestAdmissionControlFastFails429 is the admission-controller tentpole
// test: once a slot's queue crosses the watermark, new scoring requests
// are answered 429 + Retry-After immediately — no handler goroutine ever
// parks behind a saturated batcher — the sheds are counted per slot and
// server-wide, and /healthz stays green throughout.
func TestAdmissionControlFastFails429(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, _, recs := trainTestArtifact(t, "mlp", 11, 1)
	inj := &chaos.Injector{}
	srv, ts := newTestServer(t, a, Config{
		Replicas: 1, MaxBatch: 1,
		QueueDepth: 8, AdmitWatermark: 2, Chaos: inj,
	})

	// Stall the only replica so queued records stay queued.
	inj.SetScoreDelay(300 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// 8 single-record batches: one in service, one parked in the
		// hand-off, the rest queued (>= watermark 2).
		postJSON(t, ts.URL+"/v1/detect-batch", detectBatchRequest{Records: recordsJSON(recs[:8])})
	}()
	waitQueueLen(t, srv, 2)

	b, _ := json.Marshal(detectBatchRequest{Records: recordsJSON(recs[:1])})
	resp, err := http.Post(ts.URL+"/v1/detect-batch", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-watermark request got %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}

	// Overload must be invisible to liveness.
	if code, _ := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d during overload, want 200", code)
	}

	inj.SetScoreDelay(0)
	wg.Wait()

	m := srv.Models()
	var live SlotStatsJSON
	for _, s := range m.Slots {
		if s.Tag == registry.Live {
			live = s.Stats
		}
	}
	if live.Shed < 1 {
		t.Fatalf("live slot Shed = %d, want >= 1", live.Shed)
	}
	code, metrics := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{"pelican_serve_shed_total 1", `pelican_serve_slot_shed_total{slot="live"`} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestDeadlineExpiredSheds503 is the deadline-propagation tentpole test: a
// request whose X-Timeout-Ms budget runs out while its record waits behind
// a slow replica is shed — never scored — and answered 503 + Retry-After,
// with the shed counted on the slot; the server then recovers on its own
// once the fault clears.
func TestDeadlineExpiredSheds503(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, _, recs := trainTestArtifact(t, "mlp", 13, 1)
	inj := &chaos.Injector{}
	srv, ts := newTestServer(t, a, Config{
		Replicas: 1, MaxBatch: 1,
		QueueDepth: 8, Chaos: inj,
	})

	// Occupy the only replica for 400ms.
	inj.SetScoreDelay(400 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postJSON(t, ts.URL+"/v1/detect-batch", detectBatchRequest{Records: recordsJSON(recs[:1])})
	}()
	// Give the first record time to be cut and picked up by the (stalled)
	// replica before the timed request arrives behind it.
	time.Sleep(50 * time.Millisecond)

	// 50ms of budget cannot survive a 400ms replica stall.
	b, _ := json.Marshal(detectBatchRequest{Records: recordsJSON(recs[:1])})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/detect-batch", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Timeout-Ms", "50")
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired request got %d (%s), want 503", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 without Retry-After")
	}
	// The answer must come at deadline speed, not replica speed... but the
	// shed happens when a worker sees the record, so allow one stall.
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("expired request answered after %v", waited)
	}
	if code, _ := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d during deadline sheds, want 200", code)
	}

	inj.SetScoreDelay(0)
	wg.Wait()

	st := srv.Registry().StatsFor(registry.Live)
	if got := st.DeadlineExpired.Load(); got != 1 {
		t.Fatalf("DeadlineExpired = %d, want 1", got)
	}
	// Recovery: the same request with default budget now scores fine.
	resp2, body2 := postJSON(t, ts.URL+"/v1/detect-batch", detectBatchRequest{Records: recordsJSON(recs[:1])})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery request got %d (%s)", resp2.StatusCode, body2)
	}
	code, metrics := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if !strings.Contains(string(metrics), "pelican_serve_deadline_expired_total 1") {
		t.Fatalf("/metrics missing the deadline-expired counter:\n%s", metrics)
	}
}

// TestMirrorDropAccountingExact is the satellite coverage for the
// mirror-drop path: under concurrent live traffic with MirrorConcurrency=1
// and slowed replicas, mirrors are dropped rather than blocking live — and
// the per-slot counters account every record exactly:
// mirrored + mirror_dropped == live records, with the shadow slot's own
// records/agreement counters consistent. Run under -race in CI, this also
// proves the mirror goroutines' memory discipline.
func TestMirrorDropAccountingExact(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	a, _, recs := trainTestArtifact(t, "mlp", 17, 1)
	a2, _, _ := trainTestArtifact(t, "mlp", 19, 1)
	inj := &chaos.Injector{}
	srv, ts := newTestServer(t, a, Config{
		Replicas: 2, MaxBatch: 8,
		QueueDepth: 64, MirrorConcurrency: 1, Chaos: inj,
	})
	if err := srv.LoadSlot(registry.Shadow, a2); err != nil {
		t.Fatal(err)
	}
	// A little injected service time holds the single mirror token long
	// enough that concurrent live requests must drop mirrors.
	inj.SetScoreDelay(5 * time.Millisecond)

	const clients, reqs = 8, 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < reqs; r++ {
				b, _ := json.Marshal(detectBatchRequest{Records: recordsJSON(recs[:8])})
				resp, err := http.Post(ts.URL+"/v1/detect-batch", "application/json", bytes.NewReader(b))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("live request got %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Close waits for in-flight mirror goroutines, so the counters are
	// final — and exact, not approximate.
	ts.Close()
	srv.Close()

	liveSt := srv.Registry().StatsFor(registry.Live)
	shSt := srv.Registry().StatsFor(registry.Shadow)
	liveRecords := liveSt.Records.Load()
	mirrored, dropped := shSt.Mirrored.Load(), shSt.MirrorDropped.Load()
	if want := int64(clients * reqs * 8); liveRecords != want {
		t.Fatalf("live records = %d, want %d", liveRecords, want)
	}
	if mirrored+dropped != liveRecords {
		t.Fatalf("mirrored(%d) + dropped(%d) = %d, want exactly live records %d",
			mirrored, dropped, mirrored+dropped, liveRecords)
	}
	if dropped == 0 {
		t.Fatalf("no mirrors dropped with MirrorConcurrency=1 under %d concurrent clients", clients)
	}
	if got := shSt.Records.Load(); got != mirrored {
		t.Fatalf("shadow records = %d, want mirrored %d", got, mirrored)
	}
	if agree := shSt.Agreements.Load() + shSt.Disagreements.Load(); agree != mirrored {
		t.Fatalf("agreements+disagreements = %d, want mirrored %d", agree, mirrored)
	}
}
