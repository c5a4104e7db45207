package telemetry

// Structured (JSON-shaped) registry introspection: where expose.go
// renders the Prometheus text format for scrapers, this file exports the
// same state as typed Go values for programmatic consumers — the
// operator console's stats API, GET /metrics.json, and tests that want
// to read a metric without parsing the exposition format.

import (
	"math"
	"sort"
)

// Bucket is one histogram bucket in a snapshot: the upper bound and the
// cumulative count of observations at or below it (Prometheus "le"
// semantics). The +Inf bucket is implicit: its count equals Count.
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// HistogramData is a point-in-time copy of one histogram's state plus
// the standard operator quantiles estimated from its buckets.
type HistogramData struct {
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
	P50     float64  `json:"p50"`
	P90     float64  `json:"p90"`
	P99     float64  `json:"p99"`
}

// Snapshot copies the histogram's current state. The returned buckets
// are cumulative; quantiles are bucket-interpolated estimates (see
// Quantile).
func (h *Histogram) Snapshot() HistogramData {
	d := HistogramData{Buckets: make([]Bucket, len(h.upper))}
	cum := int64(0)
	for i, ub := range h.upper {
		cum += h.counts[i].Load()
		d.Buckets[i] = Bucket{UpperBound: ub, Count: cum}
	}
	d.Count = cum + h.counts[len(h.upper)].Load()
	d.Sum = h.Sum()
	if d.Count > 0 {
		// Zero (not NaN) for an empty histogram: the snapshot must stay
		// JSON-marshalable.
		d.P50 = quantileFromBuckets(d.Buckets, d.Count, 0.5)
		d.P90 = quantileFromBuckets(d.Buckets, d.Count, 0.9)
		d.P99 = quantileFromBuckets(d.Buckets, d.Count, 0.99)
	}
	return d
}

// quantileFromBuckets estimates the q-quantile (0 < q < 1) from
// cumulative buckets the way Prometheus' histogram_quantile does: find the
// bucket the rank falls into and interpolate linearly between its bounds.
// Observations beyond the last finite bucket clamp to that bound; an
// empty histogram gives NaN.
func quantileFromBuckets(buckets []Bucket, count int64, q float64) float64 {
	if count == 0 || q <= 0 || q >= 1 || len(buckets) == 0 {
		return math.NaN()
	}
	rank := q * float64(count)
	idx := sort.Search(len(buckets), func(i int) bool {
		return float64(buckets[i].Count) >= rank
	})
	if idx == len(buckets) {
		// The rank lands in the +Inf bucket; clamp to the highest finite
		// bound, the most honest answer a bucketed histogram can give.
		return buckets[len(buckets)-1].UpperBound
	}
	lower, below := 0.0, int64(0)
	if idx > 0 {
		lower, below = buckets[idx-1].UpperBound, buckets[idx-1].Count
	}
	upper := buckets[idx].UpperBound
	in := buckets[idx].Count - below
	if in == 0 {
		return upper
	}
	return lower + (upper-lower)*(rank-float64(below))/float64(in)
}

// Series is one metric series in a family snapshot: its label values
// (ordered like the family's label names) and either a scalar value
// (counters, gauges) or histogram data.
type Series struct {
	Labels []string       `json:"labels,omitempty"`
	Value  float64        `json:"value"`
	Hist   *HistogramData `json:"histogram,omitempty"`
}

// FamilySnapshot is a point-in-time copy of one metric family.
type FamilySnapshot struct {
	Name   string   `json:"name"`
	Type   Type     `json:"type"`
	Help   string   `json:"help"`
	Labels []string `json:"label_names,omitempty"`
	Series []Series `json:"series"`
}

// snapshot copies a family's live series, sorted by label values so
// repeated exports are deterministic.
func (f *family) snapshot() FamilySnapshot {
	out := FamilySnapshot{Name: f.name, Type: f.typ, Help: f.help, Labels: f.labels}
	f.mu.RLock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := f.series[k]
		s := Series{Labels: e.values}
		switch m := e.metric.(type) {
		case *Counter:
			s.Value = float64(m.Value())
		case *Gauge:
			s.Value = m.Value()
		case *Histogram:
			d := m.Snapshot()
			s.Hist = &d
			s.Value = float64(d.Count)
		}
		out.Series = append(out.Series, s)
	}
	f.mu.RUnlock()
	return out
}

// Export copies every registered family, in registration order, with
// every live series — the structured equivalent of WritePrometheus.
func (r *Registry) Export() []FamilySnapshot {
	r.mu.RLock()
	fams := append([]*family(nil), r.order...)
	r.mu.RUnlock()
	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		out = append(out, f.snapshot())
	}
	return out
}

// FamilySnapshot copies one named family; ok is false when the family
// was never registered.
func (r *Registry) FamilySnapshot(name string) (FamilySnapshot, bool) {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		return FamilySnapshot{}, false
	}
	return f.snapshot(), true
}

// Sum adds up every series of a counter or gauge family (histogram
// families sum their observation counts). Missing families read 0 —
// callers sampling optional pipeline stages need no existence checks.
func (r *Registry) Sum(name string) float64 {
	snap, ok := r.FamilySnapshot(name)
	if !ok {
		return 0
	}
	total := 0.0
	for _, s := range snap.Series {
		total += s.Value
	}
	return total
}
