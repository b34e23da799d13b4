package main

import (
	"fmt"
	"time"
)

// workload is one traffic mix: which artifact is served, on which plane,
// and how it is driven. Every field is fixed per workload name; the run's
// --seed only picks record order and arrival times.
type workload struct {
	name       string
	fixture    fixtureSpec
	plane      string  // scoring plane: "wire" or "http"
	conns      int     // scoring connections into the server
	recsPerReq int     // records per scoring request
	rate       float64 // open-loop offered load, records/s
	window     int     // closed-loop requests in flight
	pool       int     // distinct records traffic is drawn from
	// swapCycles is how many load → promote → rollback cycles are timed
	// on the idle server after the scoring phases.
	swapCycles int
	// churn, when set, builds the server on a durable store and has the
	// control client run one lifecycle op every churn while both scoring
	// phases run, cycling alt through the shadow slot (load, promote,
	// roll back).
	churn time.Duration
	alt   fixtureSpec
	// setups is how many times an untraced run sets the server up;
	// setup_s is their median.
	setups int
}

var (
	pelicanUNSW = fixtureSpec{model: "pelican", dataset: "unsw-nb15", seed: 1, records: 2000, epochs: 2}
	mlpNSL      = fixtureSpec{model: "mlp", dataset: "nsl-kdd", seed: 1, records: 4000, epochs: 2}
	mlpNSLAlt   = fixtureSpec{model: "mlp", dataset: "nsl-kdd", seed: 2, records: 4000, epochs: 2}
)

var workloads = []workload{
	{
		name: "pelican-wire", fixture: pelicanUNSW, plane: "wire",
		conns: 2, recsPerReq: 4, rate: 700, window: 16, pool: 4096, swapCycles: 3, setups: 7,
	},
	{
		name: "mlp-http", fixture: mlpNSL, plane: "http",
		conns: 2, recsPerReq: 16, rate: 7500, window: 2, pool: 16384, swapCycles: 34, setups: 51,
	},
	{
		name: "mlp-wire-churn", fixture: mlpNSL, alt: mlpNSLAlt, plane: "wire",
		conns: 1, recsPerReq: 16, rate: 11000, window: 8, pool: 4096, churn: 100 * time.Millisecond, setups: 51,
	},
}

func lookupWorkload(name string) (workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// smokeSized shrinks a workload for a seconds-long self-test: tiny
// fixtures, a small pool and a low rate. Its figures mean nothing; it
// proves every code path and every metric.
func smokeSized(w workload) workload {
	w.fixture.records, w.fixture.epochs = 200, 1
	w.alt.records, w.alt.epochs = 200, 1
	w.pool = 256
	w.rate = 400
	w.swapCycles = min(w.swapCycles, 2)
	if w.churn > 0 {
		w.churn = 20 * time.Millisecond
	}
	w.setups = 1
	return w
}
