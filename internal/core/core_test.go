package core

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"exiot/internal/scanmod"
	"exiot/internal/simnet"
	"exiot/internal/trainer"
)

func smallConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.World.NumInfected = 80
	cfg.World.NumNonIoT = 15
	cfg.World.NumResearch = 2
	cfg.World.NumMisconfig = 10
	cfg.World.NumBackscat = 3
	cfg.World.MaxPacketsPerHostHour = 1000
	cfg.Pipeline.Server.ScanMod = scanmod.Config{BatchSize: 20, BatchWait: 30 * time.Minute}
	cfg.Pipeline.Server.Trainer = trainer.Config{SearchIterations: 2, Seed: seed}
	return cfg
}

func TestSystemRunAll(t *testing.T) {
	sys := NewSystem(smallConfig(200))
	if err := sys.RunAll(); err != nil {
		t.Fatal(err)
	}
	if sys.hoursRun != 24 {
		t.Errorf("%d hours run, want 24", sys.hoursRun)
	}
	if sys.Feed().Counters().RecordsCreated == 0 {
		t.Error("no records after a full day")
	}
}

func TestSystemSpanExhaustion(t *testing.T) {
	sys := NewSystem(smallConfig(201))
	if err := sys.RunHours(24); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunHours(1); err == nil {
		t.Error("running past the span should error")
	}
}

func TestSystemAPIIntegration(t *testing.T) {
	sys := NewSystem(smallConfig(202))
	if err := sys.RunHours(8); err != nil {
		t.Fatal(err)
	}
	sys.Finish()

	ts := httptest.NewServer(sys.Handler())
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/snapshot", nil)
	req.Header.Set("X-API-Key", "dev-key")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		TotalRecords int `json:"total_records"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.TotalRecords == 0 {
		t.Error("API snapshot shows no records")
	}
}

func TestDefaultConfigFallback(t *testing.T) {
	// An empty world config falls back to the default population.
	sys := NewSystem(Config{APIKeys: map[string]string{"k": "c"}})
	infected := 0
	for _, h := range sys.World().Hosts() {
		if h.Kind == simnet.KindInfectedIoT {
			infected++
		}
	}
	if infected == 0 {
		t.Error("zero-config system has no infected hosts")
	}
}
