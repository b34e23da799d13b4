package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nids"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/tensor"
)

// fixtureSpec names one trained artifact the benchmark serves. Fixtures
// are built once per checkout and cached under the work directory; their
// training is never timed.
type fixtureSpec struct {
	model   string
	dataset string
	seed    int64
	records int
	epochs  int
}

func (f fixtureSpec) fileName() string {
	return fmt.Sprintf("%s-%s-s%d-r%d-e%d.plcn", f.model, f.dataset, f.seed, f.records, f.epochs)
}

func generatorFor(dataset string) (*synth.Generator, error) {
	switch dataset {
	case "unsw-nb15":
		return synth.New(synth.UNSWNB15Config())
	case "nsl-kdd":
		return synth.New(synth.NSLKDDConfig())
	}
	return nil, fmt.Errorf("unknown dataset %q", dataset)
}

// fixturePath returns the cached artifact file for spec, training and
// saving it first when the cache does not hold it yet.
func fixturePath(dir string, spec fixtureSpec) (string, error) {
	path := filepath.Join(dir, spec.fileName())
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	gen, err := generatorFor(spec.dataset)
	if err != nil {
		return "", err
	}
	mspec, err := models.Lookup(spec.model)
	if err != nil {
		return "", err
	}
	ds := gen.Generate(spec.records, spec.seed)
	x, y, pipe := data.Preprocess(ds)
	features := gen.Schema().EncodedWidth()
	rng := rand.New(rand.NewSource(spec.seed))
	block := models.PaperBlockConfig(features)
	stack := mspec.Build(rng, rand.New(rand.NewSource(spec.seed+1)), block, features, gen.Schema().NumClasses())
	opt := nn.NewRMSprop(0.01)
	opt.MaxNorm = 5
	net := nn.NewNetwork(stack, nn.NewSoftmaxCrossEntropy(), opt)
	net.Fit(x.Reshape(x.Dim(0), 1, features), y, nn.FitConfig{Epochs: spec.epochs, BatchSize: 256, Shuffle: true, RNG: rng})
	a, err := serve.NewArtifact(spec.model, block, gen.Schema(), pipe, net)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	if err := store.WriteAtomic(path, a.Bytes()); err != nil {
		return "", err
	}
	return path, nil
}

// poolSeed fixes the record pool every run draws its traffic from. The
// run's --seed picks which pool records go into which request, and when
// each request is sent; the pool itself stays fixed, so the oracle is
// computed once per checkout.
const poolSeed = 424242

// recordPool generates n labelled records. Numeric features are rounded
// to float32 so the JSON and wire planes carry bit-identical inputs and
// the oracle sees exactly what the server scores.
func recordPool(gen *synth.Generator, n int) []data.Record {
	recs := gen.Generate(n, poolSeed).Records
	for i := range recs {
		for j, v := range recs[i].Numeric {
			recs[i].Numeric[j] = float64(float32(v))
		}
	}
	return recs
}

// oracle holds the float64 reference verdict for every pool record under
// one artifact: the class the training graph predicts and its top-2
// logit margin.
type oracle struct {
	version string
	class   []int16
	margin  []float32
}

// marginTie is the top-2 logit margin below which a served class may
// differ from the oracle's: the f32 engine's parity bound.
const marginTie = 1e-4

// agrees reports whether a served verdict for pool record i matches the
// oracle.
func (o *oracle) agrees(i int, v nids.Verdict) bool {
	if v.Failed {
		return false
	}
	if v.Class == int(o.class[i]) && v.IsAttack == (v.Class != 0) {
		return true
	}
	return float64(o.margin[i]) < marginTie
}

// loadOracle returns the oracle of artifact a over pool, computing and
// caching it on first use. The cache file is keyed by the artifact's
// version, a SHA-256 of the pool records and the digest of the source the
// benchmark was built from, so a checkout that alternates commits never
// checks verdicts against another commit's records or reference path.
func loadOracle(dir string, a *serve.Artifact, pool []data.Record, source string) (*oracle, error) {
	key := sha256.New()
	io.WriteString(key, a.Version()+"\x00"+source+"\x00")
	for i := range pool {
		r := &pool[i]
		binary.Write(key, binary.LittleEndian, r.Numeric)
		for _, c := range r.Categorical {
			io.WriteString(key, c+"\x00")
		}
		binary.Write(key, binary.LittleEndian, int64(r.Label))
	}
	path := filepath.Join(dir, fmt.Sprintf("oracle-%s-%x.bin", a.Version(), key.Sum(nil)[:12]))
	if o, err := readOracle(path, len(pool)); err == nil {
		o.version = a.Version()
		return o, nil
	}
	o, err := computeOracle(a, pool)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for i := range o.class {
		binary.Write(&buf, binary.LittleEndian, o.class[i])
		binary.Write(&buf, binary.LittleEndian, o.margin[i])
	}
	if err := store.WriteAtomic(path, buf.Bytes()); err != nil {
		return nil, err
	}
	return o, nil
}

func readOracle(path string, n int) (*oracle, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) != n*6 {
		return nil, errors.New("oracle cache size mismatch")
	}
	o := &oracle{class: make([]int16, n), margin: make([]float32, n)}
	for i := 0; i < n; i++ {
		o.class[i] = int16(binary.LittleEndian.Uint16(b[i*6:]))
		o.margin[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*6+2:]))
	}
	return o, nil
}

// computeOracle runs the artifact's float64 training graph
// (Artifact.NewNetwork + Network.Predict over its data.Pipeline) on every
// pool record, on two goroutines each owning its own network.
func computeOracle(a *serve.Artifact, pool []data.Record) (*oracle, error) {
	o := &oracle{version: a.Version(), class: make([]int16, len(pool)), margin: make([]float32, len(pool))}
	const workers, batch = 2, 128
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			net, pipe, err := a.NewNetwork(nn.NewSoftmaxCrossEntropy(), nn.NewRMSprop(0.01))
			if err != nil {
				errs[w] = err
				return
			}
			f := pipe.Width()
			x := tensor.New(batch, f)
			for lo := w * batch; lo < len(pool); lo += workers * batch {
				hi := min(lo+batch, len(pool))
				rows := hi - lo
				x = x.Resize(rows, f)
				encodeRows(pipe, pool[lo:hi], x)
				logits := net.Predict(x.Reshape(rows, 1, f))
				for r := 0; r < rows; r++ {
					cls, margin := top2(logits.Row(r))
					o.class[lo+r] = int16(cls)
					o.margin[lo+r] = float32(margin)
				}
			}
		}(w)
	}
	wg.Wait()
	return o, errors.Join(errs...)
}

// encodeRows is the benchmark's one replay of data.Pipeline.ApplyInto:
// it encodes recs into the rows of x.
func encodeRows(pipe *data.Pipeline, recs []data.Record, x *tensor.Tensor) {
	for i := range recs {
		pipe.ApplyInto(&recs[i], x.Row(i))
	}
}

// top2 returns the argmax of row and its margin over the runner-up.
func top2(row []float64) (int, float64) {
	best, second := 0, math.Inf(-1)
	for c := 1; c < len(row); c++ {
		switch {
		case row[c] > row[best]:
			second = row[best]
			best = c
		case row[c] > second:
			second = row[c]
		}
	}
	if len(row) == 1 {
		return best, math.Inf(1)
	}
	return best, row[best] - second
}
