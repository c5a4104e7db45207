package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// A layer is one pipeline layer timed at its one boundary, under the name
// the benchmark ladder gives it (trw, server, zmap, ...). Each call
// observes its busy time into exiot_layer_seconds{layer} — count = calls,
// sum = busy seconds — and adds its items (packets, events, hosts,
// records) to exiot_layer_items_total{layer}.
const (
	layerSecondsName = "exiot_layer_seconds"
	layerItemsName   = "exiot_layer_items_total"
)

// Layer is one layer's instrument.
type Layer struct {
	seconds *Histogram
	items   *Counter
}

// Layer registers (or returns) the named layer's instrument. Call it at
// package init so the layer is on /metrics before its first call.
func (r *Registry) Layer(name string) *Layer {
	return &Layer{
		seconds: r.HistogramVec(layerSecondsName,
			"Busy time of one call into a pipeline layer: the count is calls, the sum busy seconds.",
			nil, "layer").With(name),
		items: r.CounterVec(layerItemsName,
			"Work items (packets, events, hosts, flows, records) handled by a pipeline layer.",
			"layer").With(name),
	}
}

// Add records one call that took d and handled items.
func (l *Layer) Add(d time.Duration, items int) {
	l.seconds.Observe(d.Seconds())
	l.items.Add(int64(items))
}

// Done records one call that began at start and handled items.
func (l *Layer) Done(start time.Time, items int) { l.Add(time.Since(start), items) }

// Hour is the open call of a layer that takes its items one at a time
// and is timed once per hour instead: the clock is read when the call
// opens and when Close records it, never per item.
type Hour struct {
	start time.Time
	items int
}

// Add counts n items, opening the call first if needed; Add(0) opens an
// hour that has no items yet.
func (h *Hour) Add(n int) {
	if h.start.IsZero() {
		h.start = time.Now()
	}
	h.items += n
}

// Close records h, opened by Add, as one call and resets it.
func (l *Layer) Close(h *Hour) {
	l.Done(h.start, h.items)
	*h = Hour{}
}

// LayerStat is one layer's totals; P50/P90/P99 are seconds per call,
// estimated from the histogram buckets.
type LayerStat struct {
	Layer     string  `json:"layer"`
	Calls     int64   `json:"calls"`
	Items     int64   `json:"items"`
	Seconds   float64 `json:"seconds"`
	NsPerItem float64 `json:"ns_per_item"`
	P50       float64 `json:"p50"`
	P90       float64 `json:"p90"`
	P99       float64 `json:"p99"`
}

// LayerStats returns every layer called at least once, by busy time
// descending (ties by name, so reports are stable).
func (r *Registry) LayerStats() []LayerStat {
	secs, _ := r.FamilySnapshot(layerSecondsName)
	itemFam, _ := r.FamilySnapshot(layerItemsName)
	items := map[string]int64{}
	for _, s := range itemFam.Series {
		items[s.Labels[0]] = int64(s.Value)
	}
	out := []LayerStat{}
	for _, s := range secs.Series {
		if h := s.Hist; h != nil && h.Count > 0 {
			st := LayerStat{Layer: s.Labels[0], Calls: h.Count, Items: items[s.Labels[0]],
				Seconds: h.Sum, P50: h.P50, P90: h.P90, P99: h.P99}
			if st.Items > 0 {
				st.NsPerItem = st.Seconds * 1e9 / float64(st.Items)
			}
			out = append(out, st)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seconds != out[j].Seconds {
			return out[i].Seconds > out[j].Seconds
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}

// LayerSummary renders LayerStats as an aligned table for end-of-run
// reports; empty when no layer was called.
func (r *Registry) LayerSummary() string {
	stats := r.LayerStats()
	if len(stats) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("layer timings (total desc):\n")
	fmt.Fprintf(&sb, "  %-17s %8s %12s %14s %12s\n", "layer", "calls", "items", "total", "ns/item")
	for _, st := range stats {
		total := time.Duration(st.Seconds * float64(time.Second)).Round(time.Microsecond)
		fmt.Fprintf(&sb, "  %-17s %8d %12d %14s %12.0f\n", st.Layer, st.Calls, st.Items, total, st.NsPerItem)
	}
	return sb.String()
}
