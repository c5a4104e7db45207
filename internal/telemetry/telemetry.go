// Package telemetry is eX-IoT's observability layer: a dependency-free
// metrics registry (counters, gauges, histograms with atomic hot paths),
// a per-layer calls/items/seconds instrument with an end-of-run summary,
// and component health tracking with freshness semantics. Every pipeline stage —
// traffic generation, pcap I/O, TRW detection, sampling, active probing,
// classification, enrichment, feed writes, and notification — registers
// its metrics here, and the API layer exposes the registry in Prometheus
// text exposition format (GET /metrics) next to a liveness report
// (GET /healthz).
//
// The paper positions eX-IoT as a 24/7 operational CTI service on a
// ~1M pps telescope; this package is the part that makes regressions,
// stalls, and drops measurable rather than inferred. The full metric
// catalogue and the health-check semantics are documented for operators
// in docs/OPERATIONS.md (a repo test diffs that document against the
// registry, so the two cannot drift apart).
//
// Hot-path cost: a Counter.Inc or Gauge.Set is one atomic operation; a
// Histogram.Observe is two atomic adds plus a bucket scan over a fixed
// slice. Vec lookups (With) take a read lock — callers on per-packet
// paths should cache the returned handle.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Type discriminates metric families the way Prometheus does.
type Type string

// Metric family types.
const (
	TypeCounter   Type = "counter"
	TypeGauge     Type = "gauge"
	TypeHistogram Type = "histogram"
)

// labelSep joins label values into series keys. 0xFF cannot appear in
// UTF-8 label values.
const labelSep = "\xff"

// Registry holds metric families in registration order. All methods are
// safe for concurrent use; family registration is idempotent
// (get-or-create), so package-level handles can be initialized in any
// import order.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []*family
}

// family is one named metric family: a type, a help string, label names,
// and the live series keyed by their label values.
type family struct {
	name    string
	help    string
	typ     Type
	labels  []string
	buckets []float64 // histograms only

	mu     sync.RWMutex
	series map[string]*seriesEntry
}

// seriesEntry pairs a series' label values with its metric handle.
type seriesEntry struct {
	values []string
	metric any // *Counter, *Gauge, or *Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// defaultRegistry is the process-wide registry all pipeline stages
// register into (analogous to the Prometheus default registerer).
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// lookup returns the family for name, creating it on first use. It
// panics when a name is re-registered with a different type or label
// set — that is a programming error, not an operational condition.
func (r *Registry) lookup(name, help string, typ Type, labels []string, buckets []float64) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		f = r.families[name]
		if f == nil {
			f = &family{
				name:    name,
				help:    help,
				typ:     typ,
				labels:  labels,
				buckets: buckets,
				series:  make(map[string]*seriesEntry),
			}
			r.families[name] = f
			r.order = append(r.order, f)
		}
		r.mu.Unlock()
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: %s re-registered as %s (was %s)", name, typ, f.typ))
	}
	if len(f.labels) != len(labels) {
		panic(fmt.Sprintf("telemetry: %s re-registered with %d labels (was %d)", name, len(labels), len(f.labels)))
	}
	for i := range labels {
		if f.labels[i] != labels[i] {
			panic(fmt.Sprintf("telemetry: %s re-registered with label %q (was %q)", name, labels[i], f.labels[i]))
		}
	}
	return f
}

// get returns the series for the given label values, creating it with
// make on first use.
func (f *family) get(values []string, make func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	f.mu.RLock()
	e := f.series[key]
	f.mu.RUnlock()
	if e == nil {
		f.mu.Lock()
		e = f.series[key]
		if e == nil {
			vals := append([]string(nil), values...)
			e = &seriesEntry{values: vals, metric: make()}
			f.series[key] = e
		}
		f.mu.Unlock()
	}
	return e.metric
}

// --- Counter ---

// Counter is a monotonically increasing count. Inc/Add are single atomic
// operations, safe on per-packet paths.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0; counters only go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, TypeCounter, nil, nil)
	return f.get(nil, func() any { return &Counter{} }).(*Counter)
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ f *family }

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.lookup(name, help, TypeCounter, labels, nil)}
}

// With returns the counter for the given label values, creating the
// series on first use. Cache the handle on hot paths.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.get(values, func() any { return &Counter{} }).(*Counter)
}

// --- Gauge ---

// Gauge is a value that can go up and down (queue depths, table sizes,
// freshness timestamps, scores). It stores a float64 behind a single
// atomic word.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta with a compare-and-swap loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, TypeGauge, nil, nil)
	return f.get(nil, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct{ f *family }

// GaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.lookup(name, help, TypeGauge, labels, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.get(values, func() any { return &Gauge{} }).(*Gauge)
}

// --- Histogram ---

// DefBuckets is the default histogram bucket layout in seconds, sized
// for one call into a pipeline layer: from a small scan-batch flush
// (0.1 ms) to a full telescope hour of detection (1 h).
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 300, 900, 3600,
}

// Histogram counts observations into cumulative buckets and tracks their
// sum, Prometheus-style. Observe is lock-free: one bucket scan plus
// three atomic adds.
type Histogram struct {
	upper  []float64
	counts []atomic.Int64 // one per bucket; +Inf is counts[len(upper)]
	sum    atomicFloat
	count  atomic.Int64
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{upper: buckets, counts: make([]atomic.Int64, len(buckets)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Histogram registers (or returns) an unlabeled histogram. buckets are
// upper bounds in increasing order; nil selects DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.lookup(name, help, TypeHistogram, nil, buckets)
	return f.get(nil, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct{ f *family }

// HistogramVec registers (or returns) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{f: r.lookup(name, help, TypeHistogram, labels, buckets)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.get(values, func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}

// atomicFloat is a float64 addable with compare-and-swap.
type atomicFloat struct{ bits atomic.Uint64 }

// Add atomically adds delta via a CAS loop on the float's bit pattern.
func (f *atomicFloat) Add(delta float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Load atomically reads the current value.
func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// --- Introspection ---

// Info describes one registered metric family (for documentation
// tooling and the docs-drift test).
type Info struct {
	Name   string
	Type   Type
	Help   string
	Labels []string
}

// Metrics returns every registered family in registration order.
func (r *Registry) Metrics() []Info {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Info, 0, len(r.order))
	for _, f := range r.order {
		out = append(out, Info{Name: f.name, Type: f.typ, Help: f.help, Labels: f.labels})
	}
	return out
}
