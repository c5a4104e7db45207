package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"exiot/internal/notify"
	"exiot/internal/pipeline"
	"exiot/internal/simnet"
)

const testKey = "test-key"

// simulatedServer runs a world through a 3-hour pipeline.Local, the way
// -simulate does, and returns the server it leaves behind. Before the
// first daily retrain only banners label IoT records, so the world is
// wide enough (seed 7: 22 IoT records, 4 campaigns) for the campaign
// table not to be empty.
func simulatedServer(t *testing.T) *pipeline.Server {
	t.Helper()
	const hours = 3
	cfg := simnet.DefaultConfig(7)
	cfg.NumInfected = 1000
	cfg.NumNonIoT = 200
	cfg.NumResearch = 3
	cfg.NumMisconfig = 15
	cfg.NumBackscat = 5
	cfg.Days = 1
	cfg.MaxPacketsPerHostHour = 600
	w := simnet.NewWorld(cfg)
	l := pipeline.NewLocal(pipeline.DefaultLocalConfig(), w, w.Registry(), &notify.MemoryMailer{})
	for h := 0; h < hours; h++ {
		hour := w.Start().Add(time.Duration(h) * time.Hour)
		l.ProcessHour(w.GenerateHour(hour), hour)
	}
	l.Finish(w.Start().Add(hours * time.Hour))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return l.Server()
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-API-Key", testKey)
	resp, err := http.DefaultClient.Do(req)
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

// campaignIDs reads a tracked /campaigns body and returns its IDs.
func campaignIDs(t *testing.T, body []byte) []string {
	t.Helper()
	var out struct {
		Count     int  `json:"count"`
		Tracked   bool `json:"tracked"`
		Campaigns []struct {
			ID string `json:"id"`
		} `json:"campaigns"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("campaigns body %s: %v", body, err)
	}
	if !out.Tracked || out.Count == 0 || out.Count != len(out.Campaigns) {
		t.Fatalf("campaigns not served tracked and non-empty: %s", body)
	}
	ids := make([]string, len(out.Campaigns))
	for i, c := range out.Campaigns {
		if !strings.HasPrefix(c.ID, "C-") {
			t.Fatalf("campaign ID %q is not a tracker ID", c.ID)
		}
		ids[i] = c.ID
	}
	return ids
}

// TestServeFeedWiring drives the front end exiotd serves, over a
// simulated feed, through the same function main uses.
func TestServeFeedWiring(t *testing.T) {
	src := simulatedServer(t)
	consoleMux := http.NewServeMux()
	// A rebuild interval far beyond the test: only the test's own Rebuild
	// refreshes the tracker, so two reads in a row see the same table.
	apiSrv, cache, stop := serveFeed(src, testKey, time.Hour, consoleMux)
	defer stop()
	apiTS := httptest.NewServer(apiSrv)
	defer apiTS.Close()
	consoleTS := httptest.NewServer(consoleMux)
	defer consoleTS.Close()

	resp, body := get(t, apiTS.URL+"/api/v1/records?cursor=0&limit=5")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") == "" {
		t.Fatalf("cursor page: status %d, ETag %q: %s", resp.StatusCode, resp.Header.Get("ETag"), body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, apiTS.URL+"/api/v1/events", nil)
	req.Header.Set("X-API-Key", testKey)
	ev, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if ev.StatusCode != http.StatusOK || ev.Header.Get("Content-Type") != "text/event-stream" {
		t.Errorf("events: status %d, content type %q", ev.StatusCode, ev.Header.Get("Content-Type"))
	}
	cancel()
	ev.Body.Close()

	if resp, _ := get(t, apiTS.URL+"/"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET / = %d, want 404", resp.StatusCode)
	}

	_, body = get(t, apiTS.URL+"/api/v1/campaigns")
	before := campaignIDs(t, body)
	_, fromConsole := get(t, consoleTS.URL+"/console/api/campaigns")
	if !bytes.Equal(body, fromConsole) {
		t.Errorf("API and console campaign tables differ:\n%s\n%s", body, fromConsole)
	}

	cache.Rebuild()
	_, body = get(t, apiTS.URL+"/api/v1/campaigns")
	if after := campaignIDs(t, body); strings.Join(after, ",") != strings.Join(before, ",") {
		t.Errorf("campaign IDs changed across a rebuild: %v -> %v", before, after)
	}
}
