package pipeline

import (
	"testing"

	"exiot/internal/telemetry"
)

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
// end-of-input call), the store's insert and update ops must match the
// server's RecordsCreated and FlowsEnded, and the zmap layer's hosts must
// be the scanners the scan module measured. Catches instrumentation
// placed on the wrong side of a branch (counting dropped work, or missing
// a path).
func TestTelemetryMatchesDetectorStats(t *testing.T) {
	trwBefore, serverBefore, zmapBefore := layer("trw"), layer("server"), layer("zmap")
	ops := telemetry.Default().CounterVec("exiot_store_ops_total", "", "op")
	insertsBefore, updatesBefore := ops.With("insert").Value(), ops.With("update").Value()
	eventsBefore := telemetry.Default().Sum("exiot_sampler_events_total")
	scannersBefore := telemetry.Default().Sum("exiot_scanmod_scanners_total")

	l, _ := testLocal(t, 104, 6)

	st := l.Sampler().DetectorStats()
	trwAfter, serverAfter, zmapAfter := layer("trw"), layer("server"), layer("zmap")
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
	scanners := telemetry.Default().Sum("exiot_scanmod_scanners_total") - scannersBefore
	if got := zmapAfter.Items - zmapBefore.Items; got == 0 || float64(got) != scanners {
		t.Errorf("zmap layer items advanced by %d, scan module measured %v scanners", got, scanners)
	}
	c := l.Server().Counters()
	if got := ops.With("insert").Value() - insertsBefore; got != c.RecordsCreated {
		t.Errorf(`exiot_store_ops_total{op="insert"} advanced by %d, server created %d`, got, c.RecordsCreated)
	}
	if got := ops.With("update").Value() - updatesBefore; got != c.FlowsEnded {
		t.Errorf(`exiot_store_ops_total{op="update"} advanced by %d, server ended %d`, got, c.FlowsEnded)
	}
	if c.RecordsCreated == 0 || c.FlowsEnded == 0 {
		t.Fatal("run produced no records or no flow ends; the telemetry deltas above are vacuous")
	}
}
