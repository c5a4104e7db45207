package api

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"exiot/internal/campaign"
	"exiot/internal/feed"
	"exiot/internal/notify"
)

var t0 = time.Date(2020, 12, 9, 0, 0, 0, 0, time.UTC)

// fakeSource is an in-test feed backend.
type fakeSource struct {
	records []feed.Record
}

func (f *fakeSource) Records(q Query) []feed.Record {
	var out []feed.Record
	for _, r := range f.records {
		if q.Matches(&r) {
			out = append(out, r)
		}
	}
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
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

func (f *fakeSource) Snapshot() Snapshot {
	return Snapshot{GeneratedAt: t0, TotalRecords: len(f.records),
		TopCountries: map[string]int{"CN": 3}, TopPorts: map[string]int{"23": 5},
		TopVendors: map[string]int{"MikroTik": 2}}
}

func newFakeSource() *fakeSource {
	return &fakeSource{records: []feed.Record{
		{IP: "1.2.3.4", Label: feed.LabelIoT, CountryCode: "CN", ASN: 4134, Active: true, DetectedAt: t0},
		{IP: "5.6.7.8", Label: feed.LabelNonIoT, CountryCode: "US", ASN: 7922, Active: false, DetectedAt: t0.Add(time.Hour)},
		{IP: "9.10.11.12", Label: feed.LabelIoT, CountryCode: "CN", ASN: 4837, Active: true, DetectedAt: t0.Add(2 * time.Hour)},
	}}
}

func testServer(t *testing.T) (*httptest.Server, *fakeSource, *notify.Notifier) {
	t.Helper()
	src := newFakeSource()
	notifier := notify.New(notify.Config{}, &notify.MemoryMailer{})
	s := NewServer(src, notifier)
	s.AddKey("secret-token", "test-client")
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, src, notifier
}

// identityClient asks for no encoding and decodes none, so a response
// reads as the server sent it (http.DefaultClient asks for gzip and
// decompresses behind the test's back).
var identityClient = &http.Client{Transport: &http.Transport{DisableCompression: true}}

func get(t *testing.T, ts *httptest.Server, path, token string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("X-API-Key", token)
	}
	resp, err := identityClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestHealthIsPublic(t *testing.T) {
	ts, _, _ := testServer(t)
	resp, body := get(t, ts, "/api/v1/health", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "ok") {
		t.Errorf("body = %s", body)
	}
}

func TestAuthRequired(t *testing.T) {
	ts, _, _ := testServer(t)
	for _, path := range []string{"/api/v1/snapshot", "/api/v1/records", "/api/v1/records/1.2.3.4", "/api/v1/stats/ports"} {
		resp, _ := get(t, ts, path, "")
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("%s without key: status = %d, want 401", path, resp.StatusCode)
		}
		resp, _ = get(t, ts, path, "wrong-token")
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("%s with bad key: status = %d, want 401", path, resp.StatusCode)
		}
	}
}

func TestBearerTokenAccepted(t *testing.T) {
	ts, _, _ := testServer(t)
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/snapshot", nil)
	req.Header.Set("Authorization", "Bearer secret-token")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("bearer auth status = %d", resp.StatusCode)
	}
}

func TestRecordsQuery(t *testing.T) {
	ts, _, _ := testServer(t)
	resp, body := get(t, ts, "/api/v1/records?label=IoT&country=CN", "secret-token")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Count   int           `json:"count"`
		Records []feed.Record `json:"records"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 2 {
		t.Errorf("count = %d, want 2", out.Count)
	}
	for _, r := range out.Records {
		if r.Label != feed.LabelIoT || r.CountryCode != "CN" {
			t.Errorf("filter leaked record %+v", r)
		}
	}
}

func TestRecordsQueryValidation(t *testing.T) {
	ts, _, _ := testServer(t)
	bad := []string{
		"/api/v1/records?label=Gadget",
		"/api/v1/records?asn=xyz",
		"/api/v1/records?active=maybe",
		"/api/v1/records?since=yesterday",
		"/api/v1/records?prefix=banana",
		"/api/v1/records?limit=-5",
	}
	for _, path := range bad {
		resp, _ := get(t, ts, path, "secret-token")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", path, resp.StatusCode)
		}
	}
}

func TestRecordByIP(t *testing.T) {
	ts, _, _ := testServer(t)
	resp, body := get(t, ts, "/api/v1/records/1.2.3.4", "secret-token")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var rec feed.Record
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.IP != "1.2.3.4" {
		t.Errorf("record = %+v", rec)
	}
	resp, _ = get(t, ts, "/api/v1/records/8.8.8.8", "secret-token")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing record status = %d", resp.StatusCode)
	}
	resp, _ = get(t, ts, "/api/v1/records/not-an-ip", "secret-token")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad ip status = %d", resp.StatusCode)
	}
}

func TestStatsEndpoints(t *testing.T) {
	ts, _, _ := testServer(t)
	for path, wantKey := range map[string]string{
		"/api/v1/stats/countries": "CN",
		"/api/v1/stats/ports":     "23",
		"/api/v1/stats/vendors":   "MikroTik",
	} {
		resp, body := get(t, ts, path, "secret-token")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d", path, resp.StatusCode)
		}
		var data map[string]int
		if err := json.Unmarshal(body, &data); err != nil {
			t.Fatal(err)
		}
		if _, ok := data[wantKey]; !ok {
			t.Errorf("%s: key %q missing in %v", path, wantKey, data)
		}
	}
}

func TestAlertRegistration(t *testing.T) {
	ts, _, notifier := testServer(t)
	body := strings.NewReader(`{"prefix":"198.51.100.0/24","email":"soc@example.org"}`)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/alerts", body)
	req.Header.Set("X-API-Key", "secret-token")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	subs := notifier.ExportState().Subscriptions
	if len(subs) != 1 || subs[0].Email != "soc@example.org" {
		t.Errorf("subscriptions = %+v", subs)
	}

	// Validation failures.
	for _, payload := range []string{
		`not json`,
		`{"prefix":"banana","email":"a@b.c"}`,
		`{"prefix":"1.2.3.0/24","email":"nomail"}`,
	} {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/alerts", strings.NewReader(payload))
		req.Header.Set("X-API-Key", "secret-token")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("payload %q: status = %d, want 400", payload, resp.StatusCode)
		}
	}
}

func TestQueryMatches(t *testing.T) {
	rec := feed.Record{IP: "1.2.3.4", Label: feed.LabelIoT, CountryCode: "CN", ASN: 4134, Active: true, DetectedAt: t0}
	tr := true
	fa := false
	cases := []struct {
		name string
		q    Query
		want bool
	}{
		{"empty", Query{}, true},
		{"label hit", Query{Label: feed.LabelIoT}, true},
		{"label miss", Query{Label: feed.LabelNonIoT}, false},
		{"country hit", Query{Country: "CN"}, true},
		{"country miss", Query{Country: "US"}, false},
		{"asn hit", Query{ASN: 4134}, true},
		{"asn miss", Query{ASN: 1}, false},
		{"active hit", Query{Active: &tr}, true},
		{"active miss", Query{Active: &fa}, false},
		{"since before", Query{Since: t0.Add(-time.Hour)}, true},
		{"since after", Query{Since: t0.Add(time.Hour)}, false},
	}
	for _, c := range cases {
		if got := c.q.Matches(&rec); got != c.want {
			t.Errorf("%s: Matches = %v", c.name, got)
		}
	}
}

func TestExportNDJSON(t *testing.T) {
	ts, src, _ := testServer(t)
	resp, body := get(t, ts, "/api/v1/export", "secret-token")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Errorf("content type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != len(src.records) {
		t.Fatalf("export lines = %d, want %d", len(lines), len(src.records))
	}
	for i, line := range lines {
		var rec feed.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if rec.IP == "" {
			t.Fatalf("line %d: empty record", i)
		}
	}
	// Filters apply to exports too.
	_, body = get(t, ts, "/api/v1/export?label=IoT", "secret-token")
	lines = strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 2 {
		t.Errorf("filtered export = %d lines, want 2", len(lines))
	}
	// Bad filters are rejected.
	resp, _ = get(t, ts, "/api/v1/export?label=banana", "secret-token")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad filter status = %d", resp.StatusCode)
	}
}

// trackedServer serves a feed holding one five-device campaign, with a
// campaign tracker updated over it once at each of the given instants.
func trackedServer(t *testing.T, updates ...time.Time) *httptest.Server {
	t.Helper()
	src := newFakeSource()
	for i := 0; i < 5; i++ {
		src.records = append(src.records, feed.Record{
			IP:          fmt.Sprintf("9.9.9.%d", i+1),
			Label:       feed.LabelIoT,
			CountryCode: "CN",
			TargetPorts: map[uint16]int{23: 180, 2323: 20},
			Tool:        "Mirai-like scanner",
		})
	}
	tracker := campaign.NewTracker()
	recs := src.Records(Query{Label: feed.LabelIoT})
	for _, at := range updates {
		tracker.Update(campaign.Infer(recs), at)
	}
	s := NewServer(src, nil)
	s.AddKey("secret-token", "test-client")
	s.SetCampaignTracker(tracker)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

func TestCampaignsEndpoint(t *testing.T) {
	// Without a tracker the table is empty and says so.
	plain, _, _ := testServer(t)
	resp, body := get(t, plain, "/api/v1/campaigns", "secret-token")
	if resp.StatusCode != http.StatusOK || string(body) != `{"campaigns":[],"count":0,"tracked":false}`+"\n" {
		t.Errorf("untracked campaigns: %d %s", resp.StatusCode, body)
	}

	ts := trackedServer(t, t0)
	resp, body = get(t, ts, "/api/v1/campaigns", "secret-token")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Count     int `json:"count"`
		Campaigns []struct {
			Signature string `json:"signature"`
			Devices   int    `json:"devices"`
		} `json:"campaigns"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Count == 0 {
		t.Fatal("no campaigns returned")
	}
	if out.Campaigns[0].Devices < 5 {
		t.Errorf("campaign devices = %d, want ≥5", out.Campaigns[0].Devices)
	}
	// min_size filter validation.
	resp, _ = get(t, ts, "/api/v1/campaigns?min_size=banana", "secret-token")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad min_size status = %d", resp.StatusCode)
	}
	resp, body = get(t, ts, "/api/v1/campaigns?min_size=100", "secret-token")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"count":0`) {
		t.Errorf("high min_size should filter all: %d %s", resp.StatusCode, body)
	}
}

// TestCampaignsTableAgreesWithItsAsOf serves the campaign table while a
// tracker updates beside it (run it with -race). Updates alternate
// between a feed holding a three-device and a six-device campaign and one
// holding only the smaller, so the larger one flips between active and
// decaying. Every response must read as one state of the tracker: each
// status follows from the response's own as_of, and the rows are in the
// order that as_of gives them.
func TestCampaignsTableAgreesWithItsAsOf(t *testing.T) {
	bots := func(prefix string, n int, port uint16, tool string) []feed.Record {
		var out []feed.Record
		for i := 0; i < n; i++ {
			out = append(out, feed.Record{IP: fmt.Sprintf("%s.%d", prefix, i+1), Label: feed.LabelIoT,
				CountryCode: "CN", TargetPorts: map[uint16]int{port: 200}, Tool: tool})
		}
		return out
	}
	small := bots("9.9.1", 3, 23, "Mirai-like scanner")
	both := campaign.Infer(append(bots("9.9.2", 6, 8080, ""), small...))
	alone := campaign.Infer(small)
	tracker := campaign.NewTracker()
	tracker.Update(both, t0)
	handler := CampaignsHandler(tracker)

	stop := make(chan struct{})
	updated := make(chan struct{})
	go func() {
		defer close(updated)
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			next := both
			if i%2 == 1 {
				next = alone
			}
			tracker.Update(next, t0.Add(time.Duration(i)*time.Minute))
		}
	}()
	var wg sync.WaitGroup
	faults := make([]string, 4)
	for g := range faults {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300 && faults[g] == ""; i++ {
				rec := httptest.NewRecorder()
				handler(rec, httptest.NewRequest(http.MethodGet, "/api/v1/campaigns", nil))
				faults[g] = campaignTableFault(rec.Body.Bytes())
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-updated
	for _, f := range faults {
		if f != "" {
			t.Error(f)
		}
	}
}

// campaignTableFault returns what is wrong with a /campaigns body read
// against its own as_of, or "" when nothing is.
func campaignTableFault(body []byte) string {
	var out struct {
		AsOf      time.Time `json:"as_of"`
		Campaigns []struct {
			ID       string    `json:"id"`
			Devices  int       `json:"devices"`
			LastSeen time.Time `json:"last_seen"`
			Status   string    `json:"status"`
		} `json:"campaigns"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return fmt.Sprintf("%v: %s", err, body)
	}
	if len(out.Campaigns) != 2 {
		return fmt.Sprintf("%d campaigns, want 2: %s", len(out.Campaigns), body)
	}
	for _, c := range out.Campaigns {
		want := "decaying"
		if !c.LastSeen.Before(out.AsOf) {
			want = "active"
		}
		if c.Status != want {
			return fmt.Sprintf("%s last seen %v is %q as of %v: %s", c.ID, c.LastSeen, c.Status, out.AsOf, body)
		}
	}
	a, b := out.Campaigns[0], out.Campaigns[1]
	var ordered bool
	switch {
	case a.Status != b.Status:
		ordered = a.Status == "active"
	case a.Status == "active":
		ordered = a.Devices > b.Devices || a.Devices == b.Devices && a.ID < b.ID
	default:
		ordered = a.LastSeen.After(b.LastSeen) || a.LastSeen.Equal(b.LastSeen) && a.ID < b.ID
	}
	if !ordered {
		return fmt.Sprintf("rows out of order as of %v: %s", out.AsOf, body)
	}
	return ""
}

// trafficSource wraps fakeSource with traffic stats.
type trafficSource struct {
	fakeSource
	hours []TrafficHour
}

func (t *trafficSource) Traffic() []TrafficHour { return t.hours }

func TestTrafficEndpoint(t *testing.T) {
	// A backend without traffic aggregation yields 501.
	ts, _, _ := testServer(t)
	resp, _ := get(t, ts, "/api/v1/stats/traffic", "secret-token")
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("plain source status = %d, want 501", resp.StatusCode)
	}

	// A traffic-capable backend serves the hourly buckets.
	src := &trafficSource{hours: []TrafficHour{{
		Hour: t0, Total: 1000, TCP: 900, UDP: 80, ICMP: 20,
		NewScanFlows: 5, TopPorts: map[uint16]int{23: 600}, PeakPPS: 3, Seconds: 3600,
	}}}
	srv := NewServer(src, nil)
	srv.AddKey("k", "c")
	hts := httptest.NewServer(srv)
	defer hts.Close()
	req, _ := http.NewRequest(http.MethodGet, hts.URL+"/api/v1/stats/traffic", nil)
	req.Header.Set("X-API-Key", "k")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body, _ := io.ReadAll(resp2.Body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp2.StatusCode)
	}
	var out struct {
		Count int           `json:"count"`
		Hours []TrafficHour `json:"hours"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 1 || out.Hours[0].Total != 1000 || out.Hours[0].TopPorts[23] != 600 {
		t.Errorf("traffic payload = %+v", out)
	}
}

func TestCampaignsTrackedMode(t *testing.T) {
	ts := trackedServer(t, t0, t0.Add(time.Hour), t0.Add(2*time.Hour))
	resp, body := get(t, ts, "/api/v1/campaigns", "secret-token")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Count     int                   `json:"count"`
		Tracked   bool                  `json:"tracked"`
		Campaigns []TrackedCampaignJSON `json:"campaigns"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Tracked || out.Count == 0 {
		t.Fatalf("tracked mode not served: %s", body)
	}
	c := out.Campaigns[0]
	if c.ID != "C-000001" || c.Status != "active" || c.Updates != 3 {
		t.Errorf("tracked campaign = %+v", c)
	}
	if c.FirstSeen != t0 || c.LastSeen != t0.Add(2*time.Hour) {
		t.Errorf("lifetime = %v..%v", c.FirstSeen, c.LastSeen)
	}

	// min_size still filters in tracked mode.
	resp, body = get(t, ts, "/api/v1/campaigns?min_size=100", "secret-token")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"count":0`) {
		t.Errorf("tracked min_size filter: %d %s", resp.StatusCode, body)
	}
}
