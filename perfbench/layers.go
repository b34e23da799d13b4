package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/data"
	"repro/internal/infer"
	"repro/internal/nids"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// replayBatches is how many of the workload's requests each replay cycles.
const replayBatches = 64

// replay calls f(i) for i in [0, calls) in rounds, one span per round,
// until at least minDur has been timed, and returns the mean time per
// call in microseconds.
func replay(tr *tracer, name string, minDur time.Duration, calls int, f func(i int)) float64 {
	var total time.Duration
	n := 0
	for total < minDur || n == 0 {
		total += tr.timed(0, name, func() {
			for i := 0; i < calls; i++ {
				f(i)
			}
		})
		n += calls
	}
	return float64(total) / float64(n) / 1e3
}

// replayLayers times calls into each layer's public API on the workload's
// own requests, outside the server: the wire codec, the JSON body encode,
// the compiled plan and detector at the traced run's mean batch size, the
// preprocessing pipeline, plan compilation, and the durable store.
func replayLayers(e *env, tr *tracer, meanBatch int, minDur time.Duration) (map[string]float64, error) {
	m := map[string]float64{}
	reps := e.batches[:min(replayBatches, len(e.batches))]
	version := e.art.Version()

	// wire: request encode, response parse + decode.
	enc := wire.NewRecordEncoder(e.art.Schema)
	buf := make([]byte, 0, 64<<10)
	m["wire.encode_us_per_req"] = replay(tr, "wire.RecordEncoder.AppendScoreRequest", minDur, len(reps), func(i int) {
		buf, _ = enc.AppendScoreRequest(buf[:0], uint64(i+1), 10000, "", reps[i].recs)
	})
	o := e.oracle
	payloads := make([][]byte, len(reps))
	for i, b := range reps {
		vs := make([]nids.Verdict, len(b.idx))
		for j, k := range b.idx {
			vs[j] = nids.Verdict{Class: int(o.class[k]), IsAttack: o.class[k] != 0}
		}
		p, err := wire.AppendScoreResponse(nil, uint64(i+1), version, vs)
		if err != nil {
			return nil, err
		}
		payloads[i] = p
	}
	verdicts := make([]nids.Verdict, e.w.recsPerReq)
	var decodeErr error
	m["wire.decode_us_per_req"] = replay(tr, "wire.ParseScoreResponse+DecodeVerdicts", minDur, len(reps), func(i int) {
		resp, err := wire.ParseScoreResponse(payloads[i])
		if err == nil {
			err = resp.DecodeVerdicts(verdicts)
		}
		if err != nil {
			decodeErr = err
		}
	})
	if decodeErr != nil {
		return nil, fmt.Errorf("wire decode replay: %w", decodeErr)
	}

	// serve: the JSON body the HTTP client marshals.
	bodies := make([]any, len(reps))
	for i, b := range reps {
		bodies[i] = detectBatchBody(b.recs)
	}
	m["serve.json_marshal_us_per_req"] = replay(tr, "serve.json_marshal", minDur, len(reps), func(i int) {
		json.Marshal(bodies[i])
	})

	// data + infer at the mean batch size the server formed.
	rows := min(max(meanBatch, 1), len(e.pool))
	f := e.pipe.Width()
	x := tensor.New(rows, f)
	m["data.encode_us_per_record"] = replay(tr, "data.Pipeline.ApplyInto", minDur, 1, func(int) {
		encodeRows(e.pipe, e.pool[:rows], x)
	}) / float64(rows)
	plan, err := e.art.Plan()
	if err != nil {
		return nil, err
	}
	eng := plan.NewEngine()
	in := eng.In(rows)
	for i, v := range x.Data() {
		in[i] = float32(v)
	}
	runUS := replay(tr, "infer.Engine.Run", minDur, 1, func(int) { eng.Run(rows) })
	m["infer.run_us_per_record"] = runUS / float64(rows)
	// One multiply-add per packed weight per record: a FLOP count derived
	// from Plan.WeightBytes, exact for dense layers and an undercount for
	// convolutions, which reuse each weight across positions.
	flopsPerRecord := 2 * float64(plan.WeightBytes()/4)
	m["infer.gflops"] = flopsPerRecord * float64(rows) / (runUS * 1e3)
	det, err := e.art.NewInferDetector()
	if err != nil {
		return nil, err
	}
	recs := make([]*data.Record, rows)
	for i := range recs {
		recs[i] = &e.pool[i]
	}
	out := make([]nids.Verdict, rows)
	m["infer.detect_us_per_record"] = replay(tr, "infer.Detector.DetectBatch", minDur, 1, func(int) {
		det.DetectBatch(recs, out)
	}) / float64(rows)

	// infer: compile on a freshly loaded copy of the artifact.
	fresh, err := serve.LoadArtifact(bytes.NewReader(e.fileBytes))
	if err != nil {
		return nil, err
	}
	var freshPlan *infer.Plan
	compile := tr.timed(0, "serve.Artifact.Plan", func() { freshPlan, err = fresh.Plan() })
	if err != nil {
		return nil, err
	}
	m["infer.compile_ms"] = ms(compile)
	m["infer.weight_bytes"] = float64(freshPlan.WeightBytes())
	m["infer.arena_bytes"] = float64(plan.ArenaBytes(rows))

	// store: CAS put and journal append on a private directory.
	if err := replayStore(e, tr, m); err != nil {
		return nil, err
	}
	return m, nil
}

// storeRounds is how many fresh stores the put replay writes into (a
// store keeps one copy per version, so every put needs a fresh one), and
// journalAppends how many appends the journal replay times.
const (
	storeRounds    = 3
	journalAppends = 20
)

func replayStore(e *env, tr *tracer, m map[string]float64) error {
	var puts, appends []float64
	var stats store.Stats
	for r := 0; r < storeRounds; r++ {
		dir := filepath.Join(e.workDir, fmt.Sprintf("storebench-%d-%d", os.Getpid(), r))
		os.RemoveAll(dir)
		st, err := store.Open(dir)
		if err != nil {
			return err
		}
		var version string
		d := tr.timed(0, "store.Store.Put", func() { version, err = st.Put(e.fileBytes) })
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		puts = append(puts, ms(d))
		stats = st.Stats()
		l, _, err := store.OpenLog(st.JournalDir())
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		for i := 0; i < journalAppends; i++ {
			d := tr.timed(0, "store.Log.Append", func() { err = l.Append(store.OpLoad, "shadow", version, nil) })
			if err != nil {
				break
			}
			appends = append(appends, ms(d))
		}
		closeErr := l.Close()
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		if closeErr != nil {
			return closeErr
		}
	}
	m["store.put_ms"] = median(puts)
	m["store.journal_append_ms"] = median(appends)
	m["store.artifacts"] = float64(stats.Artifacts)
	m["store.bytes"] = float64(stats.Bytes)
	return nil
}

// detectBatchBody is the /v1/detect-batch request body for recs.
func detectBatchBody(recs []*data.Record) any {
	body := struct {
		Records []serve.RecordJSON `json:"records"`
	}{Records: make([]serve.RecordJSON, len(recs))}
	for i, r := range recs {
		body.Records[i] = serve.RecordJSON{Numeric: r.Numeric, Categorical: r.Categorical}
	}
	return body
}
