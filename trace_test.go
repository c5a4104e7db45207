package exiot_test

import (
	"net/http"
	"testing"

	"exiot/internal/feed"
	"exiot/internal/trace"
)

// TestTraceFeedEquivalence is the tracing subsystem's inertness proof:
// the feed is the same with tracing off or fully on, at any worker count.
// Trace IDs and record provenance are deterministic facts of the event
// stream, and live timing capture never touches feed bytes.
func TestTraceFeedEquivalence(t *testing.T) {
	proveRows(t, dayWorld,
		row{name: "workers=1 traced", workers: 1, traced: true},
		row{name: "workers=4 untraced", workers: 4},
		row{name: "workers=4 traced", workers: 4, traced: true})
	// Every record carries provenance with a trace ID, tracing on or off.
	for _, rec := range baseline(t, dayWorld).fp.historical {
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
// traced day at four workers.
func TestWhyEndpointLineage(t *testing.T) {
	out := prove(t, dayWorld, row{name: "workers=4 traced", workers: 4, traced: true})
	h := feedAPI(out.server, nil)
	// Every record is traced at sample-every=1: take the last and demand
	// the full lineage.
	rec := out.fp.historical[len(out.fp.historical)-1]
	var rep struct {
		Record feed.Record   `json:"record"`
		Trace  *trace.Detail `json:"trace"`
	}
	decodeJSON(t, get(h, "/api/v1/records/"+rec.IP+"/why"), &rep)
	if rep.Record.IP != rec.IP {
		t.Fatalf("why returned record for %s, want %s", rep.Record.IP, rec.IP)
	}
	p := rep.Record.Provenance
	if p == nil || p.TraceID == "" || p.SampleSize == 0 || p.PortsProbed == 0 {
		t.Fatalf("incomplete provenance: %+v", p)
	}
	if rep.Trace == nil || rep.Trace.ID != p.TraceID {
		t.Fatalf("why returned trace %+v for provenance trace ID %s", rep.Trace, p.TraceID)
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
	if code := get(h, "/api/v1/records/192.0.2.254/why").Code; code != http.StatusNotFound {
		t.Fatalf("why for unknown IP returned %d, want 404", code)
	}
}
