package pipeline

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"exiot/internal/durable"
	"exiot/internal/packet"
	"exiot/internal/simnet"
	"exiot/internal/wire"
)

// midHourState drives a fresh server into the state a snapshot used to
// wait out: mid-hour, scanners buffered, one of them buffered twice (it
// ended and was detected again before the sweep) with its end parked.
// It returns the server, the events it applied and the captured ones
// still to come.
func midHourState(tb testing.TB, seed int64) (*Server, []stampedEvent, []stampedEvent, *simnet.World) {
	tb.Helper()
	events, w := captureBackHalf(tb, seed, 6)
	srv := backHalfServer(w, seed, 1)
	// Stop past half way, on three or more scanners that all arrived this
	// hour: one more arrival then flushes nothing.
	var pending []packet.IP
	cut, at := 0, time.Time{}
	for {
		var oldest time.Time
		pending, oldest = srv.scanMod.Buffer()
		if cut >= len(events)/2 && len(pending) >= 3 && oldest.Equal(at) {
			break
		}
		if cut == len(events) {
			tb.Fatal("the stream never leaves three scanners buffered mid-hour: try another seed")
		}
		at = events[cut].at
		srv.HandleEvent(events[cut].e, at)
		cut++
	}
	again := srv.pendingBatches[pending[0]].batch
	extra := []stampedEvent{
		{SamplerEvent{Kind: SamplerFlowEnd, IP: again.IP, FirstSeen: again.FirstSeen,
			DetectedAt: again.DetectedAt, LastSeen: again.DetectedAt.Add(time.Minute)}, at},
		{SamplerEvent{Kind: SamplerBatch, Batch: again}, at},
	}
	for _, se := range extra {
		srv.HandleEvent(se.e, se.at)
	}
	if got, _ := srv.scanMod.Buffer(); len(got) != len(pending)+1 || got[len(got)-1] != pending[0] {
		tb.Fatalf("scan buffer %v after re-detecting %v from %v", got, pending[0], pending)
	}
	if len(srv.pendingEnds) != 1 {
		tb.Fatalf("%d parked ends, want the re-detected scanner's", len(srv.pendingEnds))
	}
	applied := append(append([]stampedEvent{}, events[:cut]...), extra...)
	return srv, applied, events[cut:], w
}

// finishStream applies the rest of a captured stream and the end-of-run
// flush.
func finishStream(srv *Server, rest []stampedEvent) {
	for _, se := range rest {
		srv.HandleEvent(se.e, se.at)
	}
	last := rest[len(rest)-1].at
	srv.FlushScans(last)
	srv.Tick(last)
}

// TestSnapshotMidHourRoundTrip is why a snapshot need not wait: a state
// exported between two events of a busy hour — scanners buffered, one
// twice, an end parked — restores into a server that goes on to the
// same feed, counters and scan statistics as one never snapshotted.
func TestSnapshotMidHourRoundTrip(t *testing.T) {
	const seed = 217
	exported, applied, rest, w := midHourState(t, seed)
	payload, err := exported.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	// Every buffered event travels in the wire's binary encoding, tagged.
	var st serverState
	if err := json.Unmarshal(payload, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.ScanFlows) < 3 || len(st.PendingEnds) != 1 {
		t.Fatalf("export holds %d scan flows and %d parked ends, want the buffered three or more and one", len(st.ScanFlows), len(st.PendingEnds))
	}
	for _, enc := range append(st.ScanFlows, st.PendingEnds...) {
		if enc.Version != wire.Version2 {
			t.Errorf("a fresh export carries a buffered event (frame kind %d) tagged v=%d, want %d", enc.Kind, enc.Version, wire.Version2)
		}
	}

	restored := backHalfServer(w, seed, 1)
	if err := restored.RestoreState(payload); err != nil {
		t.Fatal(err)
	}
	if again, err := restored.ExportState(); err != nil || !bytes.Equal(again, payload) {
		t.Errorf("a restored server exports %d bytes, the original %d (%v)", len(again), len(payload), err)
	}

	never := backHalfServer(w, seed, 1)
	for _, se := range applied {
		never.HandleEvent(se.e, se.at)
	}
	finishStream(never, rest)
	want := exportNDJSON(never)
	wantScanned, wantTagged := never.scanMod.Stats()
	if never.Counters().RecordsCreated == 0 || never.Counters().FlowsEnded == 0 {
		t.Fatalf("the reference run is too quiet to prove anything: %+v", never.Counters())
	}

	for name, srv := range map[string]*Server{"exported": exported, "restored": restored} {
		finishStream(srv, rest)
		if got := exportNDJSON(srv); !bytes.Equal(got, want) {
			t.Errorf("%s: export differs from the never-snapshotted run's (%d vs %d bytes)", name, len(got), len(want))
		}
		if got, want := srv.Counters(), never.Counters(); got != want {
			t.Errorf("%s: counters differ:\n got:  %+v\n want: %+v", name, got, want)
		}
		if scanned, tagged := srv.scanMod.Stats(); scanned != wantScanned || tagged != wantTagged {
			t.Errorf("%s: scanned/tagged = %d/%d, want %d/%d", name, scanned, tagged, wantScanned, wantTagged)
		}
		if len(srv.pendingBatches) != 0 || len(srv.pendingEnds) != 0 || srv.scanMod.Pending() != 0 {
			t.Errorf("%s: %d flows, %d ends, %d scanners still buffered after the final flush",
				name, len(srv.pendingBatches), len(srv.pendingEnds), srv.scanMod.Pending())
		}
	}
}

// TestRestoreParentFormatSnapshot: testdata/snapshot_parent.json was
// taken by commit 35d262a, before snapshots tagged their buffered events:
// its one parked end is untagged JSON. An older exiotd's snapshot is
// refused as its version-1 segments are, before anything is restored.
func TestRestoreParentFormatSnapshot(t *testing.T) {
	payload, err := os.ReadFile("testdata/snapshot_parent.json")
	if err != nil {
		t.Fatal(err)
	}
	var st serverState
	if err := json.Unmarshal(payload, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.PendingEnds) != 1 || st.PendingEnds[0].Version != 0 || len(st.Historical) == 0 {
		t.Fatalf("testdata snapshot parks %d ends (%+v) over %d records: not the parent's format",
			len(st.PendingEnds), st.PendingEnds, len(st.Historical))
	}

	_, w := captureBackHalf(t, 213, 1)
	srv := backHalfServer(w, 213, 1)
	if err := srv.RestoreState(payload); !errors.Is(err, durable.ErrOlderFormat) {
		t.Fatalf("RestoreState = %v, want the older-exiotd refusal", err)
	}
	if n := len(srv.Historical().Find(nil)); n != 0 || srv.Counters() != (Counters{}) {
		t.Errorf("a refused snapshot restored %d records, counters %+v", n, srv.Counters())
	}
}

// TestParkedEndsAlwaysDrain runs three days of the default world, where
// a flow end used to be parked whenever any scanner was buffered — its
// own flow's or not. One parked behind nothing stayed in every snapshot
// until its source was detected again, and then ended the new record
// with the old flow's time. A parked end must always sit behind a
// buffered flow, the end of the run must leave nothing parked, and no
// record may end before it was last seen.
func TestParkedEndsAlwaysDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("three-day pipeline run")
	}
	cfg := simnet.DefaultConfig(7)
	cfg.Days = 3
	w := simnet.NewWorld(cfg)
	l := NewLocal(DefaultLocalConfig(), w, w.Registry(), nil)
	srv := l.Server()
	for h := 0; h < 72; h++ {
		hour := w.Start().Add(time.Duration(h) * time.Hour)
		l.ProcessHour(w.GenerateHour(hour), hour)
		for ip := range srv.pendingEnds {
			if _, ok := srv.pendingBatches[ip]; !ok {
				t.Fatalf("hour %d: the end of %v is parked behind no buffered flow", h+1, ip)
			}
		}
	}
	l.Finish(w.Start().Add(72 * time.Hour))
	if len(srv.pendingEnds) != 0 || len(srv.pendingBatches) != 0 {
		t.Errorf("%d ends and %d flows still parked after Finish", len(srv.pendingEnds), len(srv.pendingBatches))
	}
	if c := srv.Counters(); c.RecordsCreated == 0 || c.FlowsEnded == 0 {
		t.Fatalf("run too quiet to prove anything: %+v", c)
	}
	for _, rec := range srv.Historical().Find(nil) {
		if rec.EndedAt != nil && rec.EndedAt.Before(rec.LastSeen) {
			t.Errorf("%s, last seen %s, ended %s: another flow's end", rec.IP, rec.LastSeen, rec.EndedAt)
		}
	}
}

// TestRestoreStateRefuses: a payload RestoreState cannot stand behind is
// an error, not a panic at the next flush.
func TestRestoreStateRefuses(t *testing.T) {
	_, w := captureBackHalf(t, 213, 1)
	end, err := encodeEvents([]SamplerEvent{{Kind: SamplerFlowEnd, IP: 1}})
	if err != nil {
		t.Fatal(err)
	}
	endAsFlow, err := json.Marshal(serverState{ScanPending: []packet.IP{1}, ScanFlows: end})
	if err != nil {
		t.Fatal(err)
	}
	// Hostile models are one edit away from a committed snapshot that
	// restores and classifies; each would panic in Flatten, in the first
	// prediction, or in the normalizer.
	model, err := os.ReadFile("testdata/snapshot_model.json")
	if err != nil {
		t.Fatal(err)
	}
	edit := func(old, new string) []byte {
		if !bytes.Contains(model, []byte(old)) {
			t.Fatalf("snapshot_model.json lacks %s", old)
		}
		return bytes.Replace(model, []byte(old), []byte(new), 1)
	}
	good := backHalfServer(w, 213, 1)
	if err := good.RestoreState(model); err != nil {
		t.Fatalf("snapshot_model.json: %v", err)
	}
	if m := good.LastModel(); m == nil || m.Forest.Flatten().NumTrees() != 1 {
		t.Fatal("snapshot_model.json restored without its model")
	}
	badChild, err := os.ReadFile("testdata/snapshot_model_child_out_of_range.json")
	if err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string][]byte{
		"not JSON":                    []byte("snapshot"),
		"a flow end as a scan flow":   endAsFlow,
		"a model without its forest":  []byte(`{"model":{"normalizer":{}}}`),
		"a nil tree":                  edit(`"trees":[`, `"trees":[null,`),
		"a child outside the tree":    badChild,
		"a child shared by two nodes": edit(`"l":3,"r":4`, `"l":2,"r":4`),
		"a feature past the vector":   edit(`"f":117`, `"f":120`),
		"a normalizer one short":      edit(`"mean":[0,`, `"mean":[`),
	} {
		if err := backHalfServer(w, 213, 1).RestoreState(payload); err == nil {
			t.Errorf("%s: restored without error", name)
		}
	}
}
