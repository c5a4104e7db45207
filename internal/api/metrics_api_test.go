package api_test

// External test package: it imports the pipeline-side packages (which
// package api cannot, without a cycle) so their metric families register
// on the default registry, then asserts the /metrics endpoint actually
// exposes the full pipeline surface.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"exiot/internal/api"
	"exiot/internal/feed"
	"exiot/internal/telemetry"

	// Imported for their metric-registration side effects: every stage
	// family must exist before /metrics is scraped, exactly as in exiotd.
	_ "exiot/internal/console"
	_ "exiot/internal/pcapio"
	_ "exiot/internal/pipeline"
	_ "exiot/internal/replay"
	_ "exiot/internal/simnet"
	_ "exiot/internal/wire"
)

// nullSource is the minimal feed backend the telemetry endpoints need.
type nullSource struct{}

func (nullSource) Records(api.Query) []feed.Record       { return nil }
func (nullSource) RecordByIP(string) (feed.Record, bool) { return feed.Record{}, false }
func (nullSource) Snapshot() api.Snapshot                { return api.Snapshot{} }

// pipelineLayers are the layers the pipeline times (docs/OPERATIONS.md,
// "Layer timing").
var pipelineLayers = []string{
	"simnet", "trw", "wire", "server", "zmap", "annotate", "trainer",
	"feedserve", "durable.snapshot", "durable.recover",
}

// stagePrefixes maps each instrumented pipeline stage to its metric
// name prefix. ISSUE: /metrics must cover at least 8 stages.
var stagePrefixes = map[string]string{
	"pcap io":        "exiot_pcap_",
	"trw detection":  "exiot_flowtable_",
	"sampler":        "exiot_sampler_",
	"organizer":      "exiot_organizer_",
	"active probing": "exiot_zmap_",
	"scan module":    "exiot_scanmod_",
	"classification": "exiot_classify_",
	"retraining":     "exiot_retrain_",
	"enrichment":     "exiot_enrich_",
	"feed":           "exiot_feed_",
	"store":          "exiot_store_",
	"notify":         "exiot_notify_",
	"wire":           "exiot_wire_",
	"api":            "exiot_api_",
}

func TestMetricsEndpointCoversPipelineStages(t *testing.T) {
	srv := httptest.NewServer(api.NewServer(nullSource{}, nil))
	defer srv.Close()

	// No API key: /metrics is an operator endpoint, not a client one.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text exposition", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	covered := 0
	for stage, prefix := range stagePrefixes {
		if strings.Contains(body, "\n# TYPE "+prefix) || strings.Contains(body, "# TYPE "+prefix) {
			covered++
		} else {
			t.Logf("stage %q (%s*) not present", stage, prefix)
		}
	}
	if covered < 8 {
		t.Fatalf("/metrics covers %d pipeline stages, want >= 8", covered)
	}
	// Every layer registers its instrument at init, so its series are
	// scraped before its first call.
	for _, layer := range pipelineLayers {
		for _, series := range []string{
			`exiot_layer_seconds_count{layer="` + layer + `"}`,
			`exiot_layer_items_total{layer="` + layer + `"}`,
		} {
			if !strings.Contains(body, "\n"+series+" ") {
				t.Errorf("/metrics lacks %s", series)
			}
		}
	}
}

func TestHealthzEndpointDegrades(t *testing.T) {
	s := api.NewServer(nullSource{}, nil)
	// Isolated health tracker so other tests' checks can't interfere.
	h := telemetry.NewHealth()
	s.SetTelemetry(nil, h)
	srv := httptest.NewServer(s)
	defer srv.Close()

	get := func() (int, string) {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}

	// A check that has never beaten is pending and healthy.
	check := h.Register("ingest", time.Minute)
	if code, body := get(); code != http.StatusOK || !strings.Contains(body, "pending") {
		t.Fatalf("pending check: status %d body %s", code, body)
	}

	// The feed stalls: its only beat is already older than the window.
	// (Beats only move forward in time, so the stale beat comes first.)
	check.BeatAt(time.Now().Add(-time.Hour))
	if code, body := get(); code != http.StatusServiceUnavailable || !strings.Contains(body, "stalled") {
		t.Fatalf("stalled check: status %d body %s", code, body)
	}

	// Fresh beat: healthy again.
	check.Beat()
	if code, body := get(); code != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Fatalf("fresh check: status %d body %s", code, body)
	}

	// Graceful end of a batch run: idle, healthy again.
	h.Freeze()
	if code, body := get(); code != http.StatusOK || !strings.Contains(body, "idle") {
		t.Fatalf("frozen check: status %d body %s", code, body)
	}
}

func TestAPIRequestCounter(t *testing.T) {
	srv := httptest.NewServer(api.NewServer(nullSource{}, nil))
	defer srv.Close()

	before := counterValue(t, srv.URL, `exiot_api_requests_total{endpoint="snapshot",code="401"}`)
	resp, err := http.Get(srv.URL + "/api/v1/snapshot") // no key → 401
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated snapshot: status %d", resp.StatusCode)
	}
	after := counterValue(t, srv.URL, `exiot_api_requests_total{endpoint="snapshot",code="401"}`)
	if after != before+1 {
		t.Fatalf("request counter: before %g after %g, want +1", before, after)
	}
}

// counterValue scrapes /metrics and returns the value of one series line
// (0 when absent).
func counterValue(t *testing.T, base, series string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, series+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, series+" "), 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}
