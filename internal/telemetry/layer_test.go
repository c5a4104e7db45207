package telemetry

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestLayerRecords checks calls, items and busy time land in the two
// layer families and surface in the summary.
func TestLayerRecords(t *testing.T) {
	r := NewRegistry()
	l := r.Layer("unit")
	if got := r.LayerStats(); len(got) != 0 {
		t.Fatalf("a registered layer with no calls must not be reported: %+v", got)
	}
	start := time.Now()
	time.Sleep(2 * time.Millisecond)
	l.Done(start, 10)
	l.Add(250*time.Millisecond, 30)
	stats := r.LayerStats()
	if len(stats) != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	st := stats[0]
	if st.Layer != "unit" || st.Calls != 2 || st.Items != 40 {
		t.Fatalf("stat = %+v, want unit with 2 calls over 40 items", st)
	}
	if st.Seconds < 0.252 || st.NsPerItem != st.Seconds*1e9/40 {
		t.Fatalf("stat = %+v, want >= 252ms busy and ns/item = busy/items", st)
	}
	if st.P50 <= 0 || st.P99 < st.P50 {
		t.Fatalf("quantiles = %v/%v", st.P50, st.P99)
	}
	if sum := r.LayerSummary(); !strings.Contains(sum, "unit") {
		t.Fatalf("summary missing layer: %q", sum)
	}
	if r.Layer("unit").seconds != l.seconds {
		t.Fatal("Layer must return the same series for the same name")
	}
}

// TestHourIsOneCall checks a per-item layer's hour: Add opens the call
// once and counts items, Close records one call and resets the hour, and
// Add(0) opens an hour that has no items.
func TestHourIsOneCall(t *testing.T) {
	r := NewRegistry()
	l := r.Layer("hourly")
	var h Hour
	for i := 0; i < 5; i++ {
		h.Add(1)
	}
	opened := h.start
	h.Add(0)
	if h.start != opened || h.items != 5 {
		t.Fatalf("hour = %+v, want the first Add's clock and 5 items", h)
	}
	l.Close(&h)
	if h != (Hour{}) {
		t.Fatalf("Close left %+v, want a reset hour", h)
	}
	h.Add(0) // an hour with no items is still one call
	l.Close(&h)
	st := r.LayerStats()
	if len(st) != 1 || st[0].Calls != 2 || st[0].Items != 5 {
		t.Fatalf("stats = %+v, want 2 calls over 5 items", st)
	}
}

// TestLayerStatsTieBreak locks the ordering contract: busy time
// descending, with exact ties broken by layer name ascending, so
// end-of-run summaries are stable across runs and worker counts.
func TestLayerStatsTieBreak(t *testing.T) {
	r := NewRegistry()
	// Three layers with identical totals (one call of 2s each),
	// registered in non-alphabetical order, plus one clear winner.
	r.Layer("zeta").Add(2*time.Second, 1)
	r.Layer("alpha").Add(2*time.Second, 1)
	r.Layer("mid").Add(2*time.Second, 1)
	r.Layer("dominant").Add(10*time.Second, 1)

	stats := r.LayerStats()
	if len(stats) != 4 {
		t.Fatalf("want 4 layers, got %d", len(stats))
	}
	got := make([]string, len(stats))
	for i, st := range stats {
		got[i] = st.Layer
	}
	want := []string{"dominant", "alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("layer order = %v, want %v", got, want)
		}
	}
}

// TestBuildInfoGauge verifies the eagerly registered build-identity
// series: constant 1, labeled with version, Go runtime, and GOMAXPROCS,
// visible on every /metrics endpoint backed by the default registry.
func TestBuildInfoGauge(t *testing.T) {
	var sb strings.Builder
	if err := Default().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, "# TYPE exiot_build_info gauge") {
		t.Fatalf("exiot_build_info not registered:\n%s", text)
	}
	wantLabels := []string{
		`goversion="` + runtime.Version() + `"`,
		`gomaxprocs="` + strconv.Itoa(runtime.GOMAXPROCS(0)) + `"`,
		`version="`,
	}
	for _, l := range wantLabels {
		if !strings.Contains(text, l) {
			t.Fatalf("exiot_build_info missing label %s:\n%s", l, text)
		}
	}
	if metBuildInfo.With(buildVersion(), runtime.Version(), strconv.Itoa(runtime.GOMAXPROCS(0))).Value() != 1 {
		t.Fatal("exiot_build_info must be the constant 1")
	}
}
