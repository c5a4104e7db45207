package telemetry

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"
)

// quantile estimates h's q-quantile from its snapshot's buckets.
func quantile(h *Histogram, q float64) float64 {
	d := h.Snapshot()
	return quantileFromBuckets(d.Buckets, d.Count, q)
}

func TestHistogramSnapshotAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("snap_hist", "h", []float64{1, 2, 4, 8})
	// 100 observations spread evenly through (0,1]: every one lands in
	// the first bucket, so quantiles interpolate inside [0,1].
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	d := h.Snapshot()
	if d.Count != 100 {
		t.Fatalf("count = %d, want 100", d.Count)
	}
	if got := quantile(h, 0.5); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("p50 = %v, want 0.5 (interpolated within the first bucket)", got)
	}
	if math.Abs(d.P90-0.9) > 1e-9 || math.Abs(d.P99-0.99) > 1e-9 {
		t.Errorf("p90/p99 = %v/%v, want 0.9/0.99", d.P90, d.P99)
	}

	// Observations across buckets: rank falls between bounds.
	h2 := r.Histogram("snap_hist2", "h", []float64{1, 2, 4, 8})
	for i := 0; i < 10; i++ {
		h2.Observe(0.5) // bucket le=1
	}
	for i := 0; i < 10; i++ {
		h2.Observe(3) // bucket le=4
	}
	// p75: rank 15 of 20 → 5th of 10 observations inside (2,4].
	if got := quantile(h2, 0.75); math.Abs(got-3.0) > 1e-9 {
		t.Errorf("p75 = %v, want 3.0", got)
	}

	// Beyond the last finite bucket: clamp.
	h3 := r.Histogram("snap_hist3", "h", []float64{1})
	h3.Observe(50)
	if got := quantile(h3, 0.5); got != 1 {
		t.Errorf("overflow quantile = %v, want clamp to 1", got)
	}

	// Empty histogram: NaN, not a panic or a fake zero.
	h4 := r.Histogram("snap_hist4", "h", []float64{1})
	if got := quantile(h4, 0.5); !math.IsNaN(got) {
		t.Errorf("empty-histogram quantile = %v, want NaN", got)
	}
}

func TestRegistryExportAndSum(t *testing.T) {
	r := NewRegistry()
	r.Counter("exp_total", "c").Add(7)
	r.CounterVec("exp_vec_total", "c", "kind").With("a").Add(2)
	r.CounterVec("exp_vec_total", "c", "kind").With("b").Add(3)
	r.Gauge("exp_gauge", "g").Set(1.5)
	r.Histogram("exp_hist", "h", []float64{1}).Observe(0.5)

	fams := r.Export()
	if len(fams) != 4 {
		t.Fatalf("families = %d, want 4", len(fams))
	}
	byName := map[string]FamilySnapshot{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	if v := byName["exp_total"].Series[0].Value; v != 7 {
		t.Errorf("counter value = %v", v)
	}
	vec := byName["exp_vec_total"]
	if len(vec.Series) != 2 || vec.Series[0].Labels[0] != "a" || vec.Series[1].Labels[0] != "b" {
		t.Errorf("vec series not sorted by label: %+v", vec.Series)
	}
	if h := byName["exp_hist"].Series[0].Hist; h == nil || h.Count != 1 {
		t.Errorf("histogram series missing data: %+v", byName["exp_hist"].Series[0])
	}

	if got := r.Sum("exp_vec_total"); got != 5 {
		t.Errorf("Sum(vec) = %v, want 5", got)
	}
	if got := r.Sum("exp_gauge"); got != 1.5 {
		t.Errorf("Sum(gauge) = %v, want 1.5", got)
	}
	if got := r.Sum("never_registered"); got != 0 {
		t.Errorf("Sum(missing) = %v, want 0", got)
	}

	if _, ok := r.FamilySnapshot("never_registered"); ok {
		t.Error("FamilySnapshot reported a family that does not exist")
	}
}

func TestMetricsJSONHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("json_total", "c").Add(3)
	r.Histogram("json_seconds", "h", []float64{1, 2}).Observe(0.5)
	// A series that exists but was never observed must not poison the
	// JSON encoding (NaN quantiles are not valid JSON).
	r.Histogram("json_empty_seconds", "h", []float64{1})

	rec := httptest.NewRecorder()
	MetricsJSONHandler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics.json", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var body MetricsJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(body.Families) != 3 {
		t.Fatalf("families = %d, want 3", len(body.Families))
	}
	if body.Families[0].Name != "json_total" || body.Families[0].Series[0].Value != 3 {
		t.Errorf("counter family wrong: %+v", body.Families[0])
	}
	if body.Families[1].Series[0].Hist == nil {
		t.Errorf("histogram family missing buckets: %+v", body.Families[1])
	}
	if body.GeneratedAt.IsZero() {
		t.Error("generated_at not stamped")
	}
}
