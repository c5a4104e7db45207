package pipeline

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"exiot/internal/durable"
	"exiot/internal/feed"
	"exiot/internal/packet"
	"exiot/internal/simnet"
	"exiot/internal/store"
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

// activeCount reads the size of the server's live-flow index.
func activeCount(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.active)
}

// pendingScans reads how many scanners the scan module buffers.
func pendingScans(s *Server) int {
	pending, _ := s.scanMod.Buffer()
	return len(pending)
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
		if len(srv.pendingBatches) != 0 || len(srv.pendingEnds) != 0 || pendingScans(srv) != 0 {
			t.Errorf("%s: %d flows, %d ends, %d scanners still buffered after the final flush",
				name, len(srv.pendingBatches), len(srv.pendingEnds), pendingScans(srv))
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

// TestRestoreLiveIndexKeyValueShape: the live-flow index travels in the
// shape the Redis-style key-value store of earlier releases wrote, an
// "active:<ip>" key per live record with the zero expiry it always
// carried. Such a snapshot restores its index, a later flow end ends the
// restored record through it, and the index is written back without the
// expiry.
func TestRestoreLiveIndexKeyValueShape(t *testing.T) {
	at := time.Date(2020, 12, 9, 1, 0, 0, 0, time.UTC)
	const ip = "198.51.100.7"
	id := store.NewObjectID(at)
	rec, err := json.Marshal(feed.Record{IP: ip, Active: true, AppearedAt: at, LastSeen: at})
	if err != nil {
		t.Fatal(err)
	}
	entry := fmt.Sprintf(`{"key":"active:%s","value":"%s"}`, ip, id)
	payload := func(entry string) []byte {
		return []byte(fmt.Sprintf(`{"object_id_counter":%d,"clock":%q,"counters":{"RecordsCreated":1},`+
			`"historical":[{"id":"%s","value":%s}],"active":[%s]}`,
			store.ObjectIDCounterValue(), at.Format(time.RFC3339), id, rec, entry))
	}

	srv := NewServer(DefaultServerConfig(), nil, nil, nil)
	if err := srv.RestoreState(payload(strings.TrimSuffix(entry, "}") + `,"expires_at":"0001-01-01T00:00:00Z"}`)); err != nil {
		t.Fatal(err)
	}
	if n := activeCount(srv); n != 1 {
		t.Fatalf("the live-flow index holds %d entries after the restore, want 1", n)
	}
	exported, err := srv.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if want := `"active":[` + entry + `]`; !bytes.Contains(exported, []byte(want)) {
		t.Errorf("re-exported state lacks %s:\n%s", want, exported)
	}

	ended := at.Add(40 * time.Minute)
	srv.HandleEvent(SamplerEvent{Kind: SamplerFlowEnd, IP: packet.MustParseIP(ip), LastSeen: ended}, at.Add(time.Hour))
	got, ok := srv.Historical().Get(id)
	if !ok || got.Active || got.EndedAt == nil || !got.EndedAt.Equal(ended) || !got.LastSeen.Equal(ended) {
		t.Errorf("restored record after its flow end: %+v (found %v)", got, ok)
	}
	if c := srv.Counters(); c.FlowsEnded != 1 || c.RecordsCreated != 1 {
		t.Errorf("counters %+v, want one record created and one flow ended", c)
	}
	if n := activeCount(srv); n != 0 {
		t.Errorf("the live-flow index holds %d entries after the flow end, want 0", n)
	}

	// An entry the index cannot hold, or a model the server cannot use,
	// refuses the snapshot whole.
	for name, bad := range map[string][]byte{
		"no prefix":   payload(strings.Replace(entry, "active:", "", 1)),
		"bad address": payload(strings.Replace(entry, ".7", ".700", 1)),
		"bad model":   bytes.Replace(payload(entry), []byte(`"active":`), []byte(`"model":{"normalizer":{}},"active":`), 1),
	} {
		srv := NewServer(DefaultServerConfig(), nil, nil, nil)
		if err := srv.RestoreState(bad); err == nil {
			t.Errorf("%s: restored without error", name)
		}
		if srv.Historical().Len() != 0 || srv.Counters() != (Counters{}) {
			t.Errorf("%s: a refused snapshot restored its record", name)
		}
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
// an error, not a panic at the next flush, and the server it was meant
// for is left as it was built.
func TestRestoreStateRefuses(t *testing.T) {
	events, w := captureBackHalf(t, 213, 3)
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
	if m := good.LastModel(); m == nil || len(m.Forest.Trees) != 1 {
		t.Fatal("snapshot_model.json restored without its model")
	}
	badChild, err := os.ReadFile("testdata/snapshot_model_child_out_of_range.json")
	if err != nil {
		t.Fatal(err)
	}
	// A real state whose one flaw is an alarm subscription: the notifier
	// is restored last, so its subscriptions must parse before anything
	// else is restored.
	ran := backHalfServer(w, 213, 1)
	finishStream(ran, events)
	exported, err := ran.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if err := backHalfServer(w, 213, 1).RestoreState(exported); err != nil {
		t.Fatalf("the unedited state: %v", err)
	}
	if ran.Historical().Len() == 0 || len(ran.Traffic()) == 0 {
		t.Fatal("the exported state holds no records or no traffic: nothing to leave behind")
	}
	var parts map[string]json.RawMessage
	if err := json.Unmarshal(exported, &parts); err != nil {
		t.Fatal(err)
	}
	parts["notifier"] = json.RawMessage(`{"subscriptions":[{"prefix":"banana","email":"soc@example.org"}]}`)
	badSubscription, err := json.Marshal(parts)
	if err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string][]byte{
		"not JSON":                         []byte("snapshot"),
		"a flow end as a scan flow":        endAsFlow,
		"a model without its forest":       []byte(`{"model":{"normalizer":{}}}`),
		"a nil tree":                       edit(`"trees":[`, `"trees":[null,`),
		"a child outside the tree":         badChild,
		"a child shared by two nodes":      edit(`"l":3,"r":4`, `"l":2,"r":4`),
		"a feature past the vector":        edit(`"f":117`, `"f":120`),
		"a normalizer one short":           edit(`"mean":[0,`, `"mean":[`),
		"an active key without its prefix": []byte(`{"active":[{"key":"198.51.100.7","value":"x"}]}`),
		"an active key with a bad address": []byte(`{"active":[{"key":"active:198.51.100","value":"x"}]}`),
		"a subscription with a bad prefix": badSubscription,
	} {
		srv := backHalfServer(w, 213, 1)
		if err := srv.RestoreState(payload); err == nil {
			t.Errorf("%s: restored without error", name)
		}
		if n, h, a := srv.Historical().Len(), len(srv.Traffic()), activeCount(srv); n != 0 || h != 0 || a != 0 {
			t.Errorf("%s: refused, yet the server holds %d records, %d traffic hours and %d live flows", name, n, h, a)
		}
	}
}
