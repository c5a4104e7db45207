package console

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"exiot/internal/api"
	"exiot/internal/campaign"
	"exiot/internal/feed"
	"exiot/internal/telemetry"
	"exiot/internal/trace"
)

var t0 = time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)

// fakeSource backs the console with a static feed.
type fakeSource struct {
	records []feed.Record
	why     map[string]api.WhyReport
}

func (f *fakeSource) Records(q api.Query) []feed.Record {
	var out []feed.Record
	for _, r := range f.records {
		if q.Matches(&r) {
			out = append(out, r)
		}
	}
	return out
}

func (f *fakeSource) RecordByIP(ip string) (feed.Record, bool) {
	for _, r := range f.records {
		if r.IP == ip {
			return r, true
		}
	}
	return feed.Record{}, false
}

func (f *fakeSource) Snapshot() api.Snapshot {
	return api.Snapshot{GeneratedAt: t0, TotalRecords: len(f.records), IoTRecords: len(f.records)}
}

func (f *fakeSource) Why(ip string) (api.WhyReport, bool) {
	rep, ok := f.why[ip]
	return rep, ok
}

func iotRecords(n int) []feed.Record {
	out := make([]feed.Record, n)
	for i := range out {
		out[i] = feed.Record{
			IP:          fmt.Sprintf("203.0.113.%d", i+1),
			Label:       feed.LabelIoT,
			CountryCode: "CN",
			TargetPorts: map[uint16]int{23: 200},
			Tool:        "Mirai-like scanner",
		}
	}
	return out
}

func newRegistry(t *testing.T) *telemetry.Registry {
	t.Helper()
	return telemetry.NewRegistry()
}

func TestTickBuildsVolumeRing(t *testing.T) {
	reg := newRegistry(t)
	records := reg.Counter(volumeFamilies.records, "c")
	events := reg.CounterVec(volumeFamilies.events, "c", "kind")
	active := reg.Gauge(volumeFamilies.active, "g")

	c := New(Config{Registry: reg})
	records.Add(10)
	events.With("batch").Add(5)
	active.Set(10)
	c.Tick(t0)

	// The first tick establishes the baseline: no deltas yet.
	ring := c.volume()
	if len(ring) != 1 || ring[0].Records != 0 || ring[0].Active != 10 {
		t.Fatalf("first tick = %+v", ring)
	}

	records.Add(7)
	reg.Layer("trw").Add(time.Second, 1804)
	events.With("batch").Add(2)
	events.With("flow_end").Add(1)
	active.Set(17)
	c.Tick(t0.Add(2 * time.Second))
	ring = c.volume()
	p := ring[1]
	if p.Records != 7 || p.Events != 3 || p.Packets != 1804 || p.Active != 17 {
		t.Fatalf("second tick deltas = %+v, want records 7 events 3 packets 1804 active 17", p)
	}

	// Ring stays bounded.
	for i := 0; i < ringSize; i++ {
		c.Tick(t0.Add(time.Duration(3+i) * time.Second))
	}
	if got := len(c.volume()); got != ringSize {
		t.Fatalf("ring length = %d, want bound %d", got, ringSize)
	}
}

func consoleMux(c *Console) *http.ServeMux {
	mux := http.NewServeMux()
	c.Register(mux)
	return mux
}

func TestOverviewHandler(t *testing.T) {
	reg := newRegistry(t)
	reg.Counter(volumeFamilies.records, "c").Add(3)
	// Layer timing: 10 annotate calls of 0.5 ms over 3 flows each.
	annotate := reg.Layer("annotate")
	for i := 0; i < 10; i++ {
		annotate.Add(500*time.Microsecond, 3)
	}
	// Cluster gauges for two shards.
	reg.GaugeVec("exiot_cluster_shard_seq", "g", "shard").With("s0").Set(42)
	reg.GaugeVec("exiot_cluster_shard_lag_hours", "g", "shard").With("s0").Set(1.5)
	reg.GaugeVec("exiot_cluster_shard_seq", "g", "shard").With("s1").Set(40)

	health := telemetry.NewHealth()
	health.Register("feed", time.Minute).BeatAt(t0)

	src := &fakeSource{records: iotRecords(4)}
	c := New(Config{
		Source:   src,
		Registry: reg,
		Health:   health,
		Clock:    func() time.Time { return t0 },
	})
	c.Tick(t0)

	rec := httptest.NewRecorder()
	consoleMux(c).ServeHTTP(rec, httptest.NewRequest("GET", "/console/api/overview", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var ov Overview
	if err := json.Unmarshal(rec.Body.Bytes(), &ov); err != nil {
		t.Fatal(err)
	}
	if ov.Snapshot == nil || ov.Snapshot.TotalRecords != 4 {
		t.Errorf("snapshot = %+v", ov.Snapshot)
	}
	if len(ov.Volume) != 1 {
		t.Errorf("volume points = %d, want 1", len(ov.Volume))
	}
	if len(ov.Layers) != 1 || ov.Layers[0].Layer != "annotate" || ov.Layers[0].Calls != 10 || ov.Layers[0].Items != 30 {
		t.Fatalf("layers = %+v", ov.Layers)
	}
	if ns := ov.Layers[0].NsPerItem; ns < 166_666 || ns > 166_667 {
		t.Errorf("annotate ns/item = %v, want 0.5 ms / 3 flows", ns)
	}
	if p := ov.Layers[0].P99; p <= 0 || p > 0.0005 {
		t.Errorf("annotate p99 = %v, want within the 0.5 ms bucket", p)
	}
	if ov.Health == nil || !ov.Health.Healthy || len(ov.Health.Components) != 1 {
		t.Errorf("health = %+v", ov.Health)
	}
	if len(ov.Cluster) != 2 || ov.Cluster[0].Shard != "s0" || ov.Cluster[0].LagHours != 1.5 {
		t.Errorf("cluster = %+v", ov.Cluster)
	}
	if ov.Cluster[1].Shard != "s1" || ov.Cluster[1].Seq != 40 {
		t.Errorf("cluster shard order = %+v", ov.Cluster)
	}
}

func TestOverviewEmptySurfaces(t *testing.T) {
	// A console with nothing but a registry must still answer: empty
	// panels, not nil-pointer panics.
	c := New(Config{Registry: newRegistry(t), Clock: func() time.Time { return t0 }})
	rec := httptest.NewRecorder()
	consoleMux(c).ServeHTTP(rec, httptest.NewRequest("GET", "/console/api/overview", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var ov Overview
	if err := json.Unmarshal(rec.Body.Bytes(), &ov); err != nil {
		t.Fatal(err)
	}
	if ov.Snapshot != nil || ov.Health != nil || len(ov.Layers) != 0 || len(ov.Cluster) != 0 {
		t.Errorf("empty console leaked panels: %+v", ov)
	}
}

func TestTracesHandler(t *testing.T) {
	store := trace.NewStore()
	base := time.Now()
	for i := 1; i <= 6; i++ {
		f := &trace.Flow{ID: trace.ID(i), IP: "ip", Kind: "batch", Start: base}
		f.SpanAt("probe", base, base, base.Add(time.Duration(i)*time.Millisecond))
		store.Add(f, base.Add(time.Duration(i)*time.Millisecond))
	}
	c := New(Config{Registry: newRegistry(t), Traces: store})
	mux := consoleMux(c)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/console/api/traces?n=2", nil))
	var out struct {
		N      int                          `json:"n"`
		Stages map[string][]trace.SlowEntry `json:"stages"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.N != 2 || len(out.Stages["probe"]) != 2 {
		t.Fatalf("traces = %+v", out)
	}
	if out.Stages["probe"][0].WorkNS != int64(6*time.Millisecond) {
		t.Errorf("slowest first: %+v", out.Stages["probe"][0])
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/console/api/traces?n=banana", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad n status = %d", rec.Code)
	}

	// No trace store: empty map, not an error.
	c2 := New(Config{Registry: newRegistry(t)})
	rec = httptest.NewRecorder()
	consoleMux(c2).ServeHTTP(rec, httptest.NewRequest("GET", "/console/api/traces", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"stages":{}`) {
		t.Errorf("traceless console: %d %s", rec.Code, rec.Body)
	}
}

func TestCampaignsHandler(t *testing.T) {
	recs := iotRecords(6)
	tracker := campaign.NewTracker()
	tracker.Update(func(visit func(*feed.Record)) {
		for i := range recs {
			visit(&recs[i])
		}
	}, t0)
	c := New(Config{Registry: newRegistry(t), Tracker: tracker})

	rec := httptest.NewRecorder()
	consoleMux(c).ServeHTTP(rec, httptest.NewRequest("GET", "/console/api/campaigns", nil))
	var out struct {
		Count     int                       `json:"count"`
		Tracked   bool                      `json:"tracked"`
		Campaigns []api.TrackedCampaignJSON `json:"campaigns"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Tracked || out.Count != 1 || out.Campaigns[0].ID != "C-000001" {
		t.Fatalf("campaigns = %+v", out)
	}
	if out.Campaigns[0].Status != "active" || out.Campaigns[0].Devices != 6 {
		t.Errorf("campaign = %+v", out.Campaigns[0])
	}

	// No tracker: an empty tracked=false table.
	c2 := New(Config{Registry: newRegistry(t)})
	rec = httptest.NewRecorder()
	consoleMux(c2).ServeHTTP(rec, httptest.NewRequest("GET", "/console/api/campaigns", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"tracked":false`) {
		t.Errorf("trackerless console: %d %s", rec.Code, rec.Body)
	}
}

func TestRecordHandler(t *testing.T) {
	src := &fakeSource{
		records: iotRecords(2),
		why: map[string]api.WhyReport{
			"203.0.113.1": {
				Record: iotRecords(1)[0],
				Trace:  &trace.Detail{Spans: []trace.SpanJSON{{Stage: "sampler", WorkNS: 100}}},
			},
		},
	}
	c := New(Config{Registry: newRegistry(t), Source: src})
	mux := consoleMux(c)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/console/api/record/203.0.113.1", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"stage":"sampler"`) {
		t.Errorf("drill-down missing trace join: %d %s", rec.Code, rec.Body)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/console/api/record/not-an-ip", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("invalid ip status = %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/console/api/record/198.51.100.9", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("missing record status = %d", rec.Code)
	}

	// A source that cannot join records with their traces, or none at
	// all, has no drill-down to serve.
	for name, src := range map[string]api.Source{"a plain source": struct{ api.Source }{src}, "no source": nil} {
		c2 := New(Config{Registry: newRegistry(t), Source: src})
		rec = httptest.NewRecorder()
		consoleMux(c2).ServeHTTP(rec, httptest.NewRequest("GET", "/console/api/record/203.0.113.2", nil))
		if rec.Code != http.StatusNotImplemented {
			t.Errorf("%s: drill-down status = %d, want 501", name, rec.Code)
		}
	}
}

func TestDashboardServed(t *testing.T) {
	c := New(Config{Registry: newRegistry(t)})
	mux := consoleMux(c)
	for _, path := range []string{"/console/", "/console/app.js", "/console/style.css"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 || rec.Body.Len() == 0 {
			t.Errorf("%s: status %d, %d bytes", path, rec.Code, rec.Body.Len())
		}
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/console/", nil))
	if !strings.Contains(rec.Body.String(), "operator console") {
		t.Error("index.html not served at /console/")
	}
}

func TestEventsStreamEmitsStats(t *testing.T) {
	reg := newRegistry(t)
	reg.Counter(volumeFamilies.records, "c").Add(5)
	health := telemetry.NewHealth()
	health.Register("feed", time.Hour).BeatAt(t0)
	c := New(Config{
		Registry: reg,
		Health:   health,
		Clock:    func() time.Time { return t0 },
	})
	c.tick = 20 * time.Millisecond
	c.Tick(t0)

	srv := httptest.NewServer(consoleMux(c))
	t.Cleanup(srv.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/console/api/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	// Read until a stats event arrives (a few ticks at most).
	buf := make([]byte, 4096)
	var got strings.Builder
	for ctx.Err() == nil && !strings.Contains(got.String(), "event: stats") {
		n, err := resp.Body.Read(buf)
		got.Write(buf[:n])
		if err != nil {
			break
		}
	}
	body := got.String()
	if !strings.Contains(body, "event: stats") {
		t.Fatalf("no stats frame in stream: %q", body)
	}
	if !strings.Contains(body, `"healthy":true`) {
		t.Errorf("stats frame missing health: %q", body)
	}
}

func TestEndpointsMatchRoutes(t *testing.T) {
	c := New(Config{Registry: newRegistry(t)})
	eps := c.routes()
	if len(eps) != 5 {
		t.Fatalf("endpoints = %d, want 5", len(eps))
	}
	mux := consoleMux(c)
	for _, ep := range eps {
		probe := strings.ReplaceAll(ep.Path, "{ip}", "203.0.113.1")
		if ep.Path == "/console/api/events" {
			continue // SSE blocks; covered by TestEventsStreamEmitsStats
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(ep.Method, probe, nil))
		if rec.Code == http.StatusNotFound && !strings.Contains(rec.Body.String(), "no record") {
			t.Errorf("%s %s not mounted: %d", ep.Method, ep.Path, rec.Code)
		}
	}
}
