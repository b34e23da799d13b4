package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// Stage families scraped from /metrics. Histograms match the live slot's
// series by label subset and sum over any other labels (a later per-plane
// label splits a series without breaking the scrape); counters sum every
// series of the family.
const (
	famQueueWait = "pelican_serve_queue_wait_seconds"
	famAssembly  = "pelican_serve_batch_assembly_seconds"
	famInfer     = "pelican_serve_infer_seconds"
	famEncode    = "pelican_serve_encode_seconds"
	famBatchSize = "pelican_serve_batch_size"
	famRequest   = "pelican_serve_request_seconds"

	famBatches = "pelican_serve_batches_total"
	famShed    = "pelican_serve_shed_total"
	famExpired = "pelican_serve_deadline_expired_total"
)

// histMatch is the label subset each scraped histogram family must carry.
var histMatch = map[string]map[string]string{
	famQueueWait: {"slot": "live"},
	famAssembly:  {"slot": "live"},
	famInfer:     {"slot": "live"},
	famEncode:    {"slot": "live"},
	famBatchSize: {"slot": "live"},
	famRequest:   nil,
}

var counterFamilies = []string{famBatches, famShed, famExpired}

// scrape is one parsed /metrics snapshot, or the delta between two.
type scrape struct {
	at       time.Time
	wall     time.Duration // a delta's interval
	hists    map[string]*obs.PromHist
	counters map[string]float64
}

func parseScrape(r io.Reader, at time.Time) (*scrape, error) {
	fams, err := obs.ParseProm(r)
	if err != nil {
		return nil, err
	}
	s := &scrape{at: at, hists: map[string]*obs.PromHist{}, counters: map[string]float64{}}
	for name, match := range histMatch {
		if h := sumHistSeries(fams[name], match); h != nil {
			s.hists[name] = h
		}
	}
	for _, name := range counterFamilies {
		if f := fams[name]; f != nil {
			for _, smp := range f.Samples {
				s.counters[name] += smp.Value
			}
		}
	}
	return s, nil
}

// sumHistSeries sums every series of a histogram family whose labels
// include match. Each series is extracted on its own (exact label set,
// le aside) before summing, so series never blend bucket by bucket.
func sumHistSeries(f *obs.PromFamily, match map[string]string) *obs.PromHist {
	if f == nil {
		return nil
	}
	groups := map[string][]obs.PromSample{}
	for _, smp := range f.Samples {
		if !hasLabels(smp.Labels, match) {
			continue
		}
		k := seriesKey(smp.Labels)
		groups[k] = append(groups[k], smp)
	}
	var total *obs.PromHist
	for _, samples := range groups {
		one := &obs.PromFamily{Name: f.Name, Type: f.Type, Samples: samples}
		total = addHist(total, one.Histogram(nil))
	}
	return total
}

func hasLabels(labels, match map[string]string) bool {
	for k, v := range match {
		if labels[k] != v {
			return false
		}
	}
	return true
}

// seriesKey identifies a series by its labels other than le.
func seriesKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k + "=" + labels[k] + ",")
	}
	return b.String()
}

// addHist returns a + b bucket by bucket. Series of one family share
// bounds; a series whose bounds differ is summed on its count and sum only.
func addHist(a, b *obs.PromHist) *obs.PromHist {
	switch {
	case b == nil:
		return a
	case a == nil:
		return &obs.PromHist{Bounds: b.Bounds, Counts: append([]int64(nil), b.Counts...), Inf: b.Inf, Sum: b.Sum, Count: b.Count}
	}
	out := &obs.PromHist{Bounds: a.Bounds, Counts: append([]int64(nil), a.Counts...), Inf: a.Inf + b.Inf, Sum: a.Sum + b.Sum, Count: a.Count + b.Count}
	if len(a.Counts) == len(b.Counts) {
		for i := range out.Counts {
			out.Counts[i] += b.Counts[i]
		}
	}
	return out
}

// sub returns the scrape delta s - prev: histograms bucket by bucket
// (obs.PromHist.Sub), counters by value.
func (s *scrape) sub(prev *scrape) *scrape {
	d := &scrape{at: s.at, hists: map[string]*obs.PromHist{}, counters: map[string]float64{}}
	d.wall = s.at.Sub(prev.at)
	for name, h := range s.hists {
		d.hists[name] = h.Sub(prev.hists[name])
	}
	for name, v := range s.counters {
		d.counters[name] = v - prev.counters[name]
	}
	return d
}

// decodeTraces parses a /debug/traces body.
func decodeTraces(b []byte) ([]*obs.Trace, error) {
	var resp struct {
		Traces []*obs.Trace `json:"traces"`
	}
	if err := json.Unmarshal(b, &resp); err != nil {
		return nil, err
	}
	return resp.Traces, nil
}
