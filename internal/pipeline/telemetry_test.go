package pipeline

import (
	"testing"

	"exiot/internal/telemetry"
)

// counter returns the live handle for an already-registered counter
// family (registration is idempotent; help is not compared).
func counter(name string) *telemetry.Counter {
	return telemetry.Default().Counter(name, "")
}

// layer returns one layer's statistics on the default registry (zero
// before its first call).
func layer(name string) telemetry.LayerStat {
	for _, st := range telemetry.Default().LayerStats() {
		if st.Layer == name {
			return st
		}
	}
	return telemetry.LayerStat{}
}

// TestTelemetryMatchesDetectorStats cross-checks the metrics registry
// against the pipeline's own lifetime counters: the packets the trw layer
// counted as its items must be exactly the packets the detector reports
// processing, one trw and one server call per hour (plus the server's
// end-of-input call), and the feed-insert counter must match the
// server's RecordsCreated. Catches instrumentation placed on the wrong
// side of a branch (counting dropped work, or missing a path).
func TestTelemetryMatchesDetectorStats(t *testing.T) {
	trwBefore, serverBefore := layer("trw"), layer("server")
	recordsBefore := counter("exiot_feed_records_total").Value()
	endsBefore := counter("exiot_feed_flow_ends_total").Value()
	eventsBefore := telemetry.Default().Sum("exiot_sampler_events_total")

	l, _ := testLocal(t, 104, 6)

	st := l.Sampler().DetectorStats()
	trwAfter, serverAfter := layer("trw"), layer("server")
	if got := trwAfter.Items - trwBefore.Items; got != st.Processed {
		t.Errorf("trw layer items advanced by %d, detector processed %d", got, st.Processed)
	}
	if got := trwAfter.Calls - trwBefore.Calls; got != 6 {
		t.Errorf("trw layer calls advanced by %d, want 6", got)
	}
	if got := serverAfter.Calls - serverBefore.Calls; got != 7 {
		t.Errorf("server layer calls advanced by %d, want 6 hours + the end of input", got)
	}
	events := telemetry.Default().Sum("exiot_sampler_events_total") - eventsBefore
	if got := serverAfter.Items - serverBefore.Items; float64(got) != events {
		t.Errorf("server layer items advanced by %d, sampler emitted %v events", got, events)
	}
	c := l.Server().Counters()
	if got := counter("exiot_feed_records_total").Value() - recordsBefore; got != c.RecordsCreated {
		t.Errorf("exiot_feed_records_total advanced by %d, server created %d", got, c.RecordsCreated)
	}
	if got := counter("exiot_feed_flow_ends_total").Value() - endsBefore; got != c.FlowsEnded {
		t.Errorf("exiot_feed_flow_ends_total advanced by %d, server ended %d", got, c.FlowsEnded)
	}
	if c.RecordsCreated == 0 {
		t.Fatal("run produced no records; the telemetry deltas above are vacuous")
	}
}
