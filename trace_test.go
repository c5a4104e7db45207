// Cross-package inertness proof for the tracing subsystem: the feed a
// pipeline produces must be byte-identical with tracing off or fully
// on, at any worker count — trace IDs and record provenance are
// deterministic facts of the event stream, and live timing capture
// never touches feed bytes. The same run then proves the why API
// replays a record's full detection → probe → classify → enrich
// lineage.
package exiot_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"exiot/internal/api"
	"exiot/internal/feed"
	"exiot/internal/notify"
	"exiot/internal/pipeline"
	"exiot/internal/trace"
)

const traceProofHours = 24

// traceProofRun drives a 24 h single-process pipeline with the given
// worker count and sampling setting, returning the feed fingerprint and
// the live server for API checks.
func traceProofRun(t *testing.T, seed int64, workers, sampleEvery int) (feedFingerprint, *pipeline.Server) {
	t.Helper()
	trace.Default().SetSampleEvery(sampleEvery)
	defer trace.Default().SetSampleEvery(0)

	w := durableProofWorld(seed, workers)
	cfg := pipeline.DefaultLocalConfig()
	cfg.Workers = workers
	l, err := pipeline.NewDurableLocal(cfg, w, w.Registry(), &notify.MemoryMailer{})
	if err != nil {
		t.Fatal(err)
	}
	driveProofHours(l, w, 0, traceProofHours)
	l.Finish(w.Start().Add(traceProofHours * time.Hour))
	return fingerprintFeed(t, l.Server()), l.Server()
}

func TestTraceFeedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hour pipeline runs")
	}
	const seed = 99
	base, _ := traceProofRun(t, seed, 1, 0)
	if len(base.historical) == 0 {
		t.Fatal("baseline run produced no feed records")
	}
	runs := []struct {
		name        string
		workers     int
		sampleEvery int
	}{
		{"workers=1 traced", 1, 1},
		{"workers=4 untraced", 4, 0},
		{"workers=4 traced", 4, 1},
	}
	for _, run := range runs {
		fp, _ := traceProofRun(t, seed, run.workers, run.sampleEvery)
		if fp.ndjson != base.ndjson {
			t.Fatalf("%s: NDJSON export differs from workers=1 untraced baseline", run.name)
		}
	}

	// Every record must carry deterministic provenance with a trace ID,
	// tracing on or off.
	for _, rec := range base.historical {
		if rec.Provenance == nil || rec.Provenance.TraceID == "" {
			t.Fatalf("record %s missing provenance trace ID", rec.IP)
		}
		if _, err := trace.ParseID(rec.Provenance.TraceID); err != nil {
			t.Fatalf("record %s: bad trace ID: %v", rec.IP, err)
		}
	}
}

// TestWhyEndpointLineage proves GET /api/v1/records/{ip}/why joins a
// feed record with its retained trace: the full per-stage lineage of a
// traced 24 h run at four workers.
func TestWhyEndpointLineage(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hour pipeline run")
	}
	_, server := traceProofRun(t, 105, 4, 1)

	apiSrv := api.NewServer(server, server.Notifier())
	apiSrv.AddKey("proof-key", "trace-test")
	ts := httptest.NewServer(apiSrv)
	defer ts.Close()

	get := func(path string) (int, []byte) {
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-API-Key", "proof-key")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	recs := server.Records(api.Query{})
	if len(recs) == 0 {
		t.Fatal("traced run produced no feed records")
	}

	// Find a record whose trace detail reaches the store (every one
	// should at sample-every=1; take the first and demand the full
	// lineage).
	rec := recs[len(recs)-1]
	code, body := get("/api/v1/records/" + rec.IP + "/why")
	if code != http.StatusOK {
		t.Fatalf("why endpoint returned %d: %s", code, body)
	}
	var rep struct {
		Record feed.Record   `json:"record"`
		Trace  *trace.Detail `json:"trace"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Record.IP != rec.IP {
		t.Fatalf("why returned record for %s, want %s", rep.Record.IP, rec.IP)
	}
	p := rep.Record.Provenance
	if p == nil || p.TraceID == "" || p.SampleSize == 0 || p.PortsProbed == 0 {
		t.Fatalf("incomplete provenance: %+v", p)
	}
	if rep.Trace == nil {
		t.Fatal("why returned no trace detail for a fully traced run")
	}
	if rep.Trace.ID != p.TraceID {
		t.Fatalf("trace detail ID %s != provenance trace ID %s", rep.Trace.ID, p.TraceID)
	}
	stages := map[string]bool{}
	for _, sp := range rep.Trace.Spans {
		stages[sp.Stage] = true
	}
	for _, want := range []string{"sampler", "scanmod", "probe", "annotate", "enrich", "emit"} {
		if !stages[want] {
			t.Fatalf("lineage missing %q span; got stages %v", want, stages)
		}
	}

	// An unknown IP 404s.
	if code, _ := get("/api/v1/records/192.0.2.254/why"); code != http.StatusNotFound {
		t.Fatalf("why for unknown IP returned %d, want 404", code)
	}
}
