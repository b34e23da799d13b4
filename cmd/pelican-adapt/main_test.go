package main

import (
	"bytes"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/synth"
)

func TestAdaptRequiresModel(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil || !strings.Contains(err.Error(), "-model") {
		t.Fatalf("missing -model not rejected: %v", err)
	}
}

func TestAdaptRejectsUnknownDataset(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-model", "x.plcn", "-dataset", "cicids"}, &out); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestAdaptRejectsUnreachableTarget(t *testing.T) {
	gen, err := synth.New(synth.NSLKDDConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := trainArtifactFile(t, gen, 300, 1)
	var out bytes.Buffer
	if err := run([]string{"-model", path, "-target", "http://127.0.0.1:1"}, &out); err == nil {
		t.Fatal("unreachable target accepted")
	}
}

// trainArtifactFile trains a small MLP on the generator and writes its
// artifact under t.TempDir.
func trainArtifactFile(t *testing.T, gen *synth.Generator, records, epochs int) string {
	t.Helper()
	ds := gen.Generate(records, 1)
	x, y, pipe := data.Preprocess(ds)
	features := gen.Schema().EncodedWidth()
	classes := gen.Schema().NumClasses()
	rng := rand.New(rand.NewSource(1))
	stack := models.BuildMLP(rng, rand.New(rand.NewSource(2)), features, classes)
	opt := nn.NewRMSprop(0.01)
	opt.MaxNorm = 5
	net := nn.NewNetwork(stack, nn.NewSoftmaxCrossEntropy(), opt)
	net.Fit(x.Reshape(x.Dim(0), 1, features), y, nn.FitConfig{
		Epochs: epochs, BatchSize: 128, Shuffle: true, RNG: rng,
	})
	a, err := serve.NewArtifact("mlp", models.PaperBlockConfig(features), gen.Schema(), pipe, net)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.plcn")
	if err := serve.SaveArtifactFile(path, a); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestAdaptSidecarEndToEnd runs the sidecar against an in-process scoring
// server: injected drift must trigger a published retrain (and the health
// watchdog must never see the server falter through the hot swap).
func TestAdaptSidecarEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model and streams thousands of flows")
	}
	gen, err := synth.New(synth.NSLKDDConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := trainArtifactFile(t, gen, 1200, 5)
	a, err := serve.LoadArtifactFile(path)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(a, serve.Config{Replicas: 2, MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	var out bytes.Buffer
	err = run([]string{
		"-model", path,
		"-target", ts.URL,
		"-artifact-dir", t.TempDir(),
		"-flows", "9000",
		"-shift-at", "3000",
		"-report-every", "3000",
		"-healthz-every", "50ms",
		"-require-retrain",
	}, &out)
	t.Logf("sidecar output:\n%s", out.String())
	if err != nil {
		t.Fatalf("sidecar failed: %v", err)
	}
	if !strings.Contains(out.String(), "-> published") {
		t.Fatal("no published retrain in sidecar output")
	}
	if srv.Artifact().Version() == a.Version() {
		t.Fatal("server still serves the original generation")
	}
}
