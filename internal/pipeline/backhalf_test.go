package pipeline

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"exiot/internal/durable"
	"exiot/internal/feedserve"
	"exiot/internal/notify"
	"exiot/internal/scanmod"
	"exiot/internal/simnet"
	"exiot/internal/trainer"
	"exiot/internal/trw"
)

// stampedEvent is one captured sampler event plus its availability time.
type stampedEvent struct {
	e  SamplerEvent
	at time.Time
}

// captureBackHalf runs the serial sampler over a small world and records
// the exact event stream the feed server would consume, with the same
// availability stamps Local would apply. Capturing once and replaying
// into differently configured servers isolates the back half: any feed
// difference is the flush fan-out's fault, not the detector's.
func captureBackHalf(tb testing.TB, seed int64, hours int) ([]stampedEvent, *simnet.World) {
	tb.Helper()
	cfg := simnet.DefaultConfig(seed)
	cfg.NumInfected = 120
	cfg.NumNonIoT = 25
	cfg.NumResearch = 3
	cfg.NumMisconfig = 15
	cfg.NumBackscat = 5
	cfg.Days = (hours + 23) / 24
	cfg.MaxPacketsPerHostHour = 1200
	w := simnet.NewWorld(cfg)

	delay := DefaultLocalConfig().CollectionDelay + DefaultLocalConfig().ProcessingDelay
	var events []stampedEvent
	var at time.Time
	sampler := NewSampler(trw.Default(), func(e SamplerEvent) {
		events = append(events, stampedEvent{e: e, at: at})
	})
	start := w.Start()
	for h := 0; h < hours; h++ {
		hour := start.Add(time.Duration(h) * time.Hour)
		at = hour.Add(time.Hour).Add(delay)
		sampler.ProcessHour(w.GenerateHour(hour), hour.Add(time.Hour))
	}
	end := start.Add(time.Duration(hours) * time.Hour)
	at = end.Add(delay)
	sampler.Flush(end)
	if len(events) == 0 {
		tb.Fatal("sampler produced no events")
	}
	return events, w
}

// backHalfConfig is the back half the tests drive: small scan batches,
// a cheap trainer, and the given scan-flush worker count.
func backHalfConfig(seed int64, workers int) LocalConfig {
	cfg := DefaultLocalConfig()
	cfg.Server.ScanMod = scanmod.Config{BatchSize: 25, BatchWait: 30 * time.Minute}
	cfg.Server.Trainer = trainer.Config{SearchIterations: 2, Seed: seed}
	cfg.Server.Workers = workers
	return cfg
}

// backHalfServer builds a fresh feed server over w with the given
// back-half worker count.
func backHalfServer(w *simnet.World, seed int64, workers int) *Server {
	return NewServer(backHalfConfig(seed, workers).Server, w, w.Registry(), &notify.MemoryMailer{})
}

// newBackHalf builds the shipped back half over that server's
// configuration, recovering from dcfg.Dir when set.
func newBackHalf(tb testing.TB, w *simnet.World, seed int64, workers int, dcfg DurableConfig) *BackHalf {
	tb.Helper()
	cfg := backHalfConfig(seed, workers)
	cfg.Durable = dcfg
	b, err := NewBackHalf(cfg, w, w.Registry(), &notify.MemoryMailer{})
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// feedHours hands events[from:to) to b the way the receiver's merge does:
// each event under its hour, EndHour after each hour's last event, and
// the stream's last event ends the input.
func feedHours(b *BackHalf, events []stampedEvent, from, to int) {
	delay := DefaultLocalConfig().CollectionDelay + DefaultLocalConfig().ProcessingDelay
	for i := from; i < to; i++ {
		hourEnd := events[i].at.Add(-delay)
		b.Deliver(events[i].e, hourEnd)
		if final := i == len(events)-1; final || !events[i+1].at.Equal(events[i].at) {
			b.EndHour(hourEnd, final)
		}
	}
}

// replayBackHalf drives a captured event stream into a fresh back half
// with the given worker count.
func replayBackHalf(tb testing.TB, seed int64, hours, workers int) *Server {
	tb.Helper()
	events, w := captureBackHalf(tb, seed, hours)
	b := newBackHalf(tb, w, seed, workers, DurableConfig{})
	feedHours(b, events, 0, len(events))
	return b.Server()
}

// TestBackHalfFeedEquivalence is the back half's determinism proof: the
// same event stream into a server whose scan-batch flush fans out across
// four workers must yield a feed byte-identical to the serial one —
// records, order, and lifetime counters alike.
func TestBackHalfFeedEquivalence(t *testing.T) {
	const seed, hours = 210, 10
	serial := replayBackHalf(t, seed, hours, 1)
	parallel := replayBackHalf(t, seed, hours, 4)

	sRecs := serial.Historical().Find(nil)
	pRecs := parallel.Historical().Find(nil)
	if len(sRecs) == 0 {
		t.Fatal("serial replay produced no records")
	}
	if len(pRecs) != len(sRecs) {
		t.Fatalf("historical size differs: workers=4 got %d, workers=1 got %d", len(pRecs), len(sRecs))
	}
	for i := range sRecs {
		if !reflect.DeepEqual(pRecs[i], sRecs[i]) {
			t.Fatalf("historical record %d differs:\n workers=4: %+v\n workers=1: %+v", i, pRecs[i], sRecs[i])
		}
	}
	if s, p := serial.Counters(), parallel.Counters(); s != p {
		t.Errorf("counters differ:\n workers=4: %+v\n workers=1: %+v", p, s)
	}
}

// exportNDJSON is the feed's bulk export as the snapshot read path
// serves it.
func exportNDJSON(srv *Server) []byte {
	return srv.NewFeedCache(feedserve.Config{}).Current().ExportNDJSON()
}

// TestDurableReceiverSnapshotsAtHourEnd pins the receiver wiring at
// Server.Workers 4: an hour end writes its snapshot with scanners still
// buffered (every appended sequence is applied by then — delivery is
// synchronous), a restart recovers from that snapshot plus the WAL tail
// to the uninterrupted run's export, and a restart after the end of
// input still has the records of the final flush.
func TestDurableReceiverSnapshotsAtHourEnd(t *testing.T) {
	const seed, hours, workers = 213, 8, 4
	events, w := captureBackHalf(t, seed, hours)

	baseHalf := newBackHalf(t, w, seed, workers, DurableConfig{})
	feedHours(baseHalf, events, 0, len(events))
	base := baseHalf.Server()
	want := exportNDJSON(base)
	if base.Counters().RecordsCreated == 0 {
		t.Fatal("uninterrupted run produced no records")
	}

	// Every third hour end is due: hours 1, 4 and 7, not the last.
	dcfg := DurableConfig{Dir: t.TempDir(), Sync: durable.SyncOff, SnapshotEvery: 3 * time.Hour}
	open := func() (*BackHalf, *Server, *Durable) {
		b := newBackHalf(t, w, seed, workers, dcfg)
		return b, b.Server(), b.Durable()
	}
	same := func(when string, srv *Server) {
		t.Helper()
		if got := exportNDJSON(srv); !bytes.Equal(got, want) {
			t.Errorf("%s: export differs from the uninterrupted run's (%d vs %d bytes)", when, len(got), len(want))
		}
		if got, want := srv.Counters(), base.Counters(); got != want {
			t.Errorf("%s: counters differ:\n recovered:     %+v\n uninterrupted: %+v", when, got, want)
		}
	}

	// First process: through the first hour, whose end finds scanners
	// buffered and must write its snapshot all the same; then on to two
	// thirds of the stream and stopped there, mid-hour, with no final
	// snapshot (Durable.Close takes none).
	b, srv, dur := open()
	hourEnd := 1
	for events[hourEnd].at.Equal(events[hourEnd-1].at) {
		hourEnd++
	}
	feedHours(b, events, 0, hourEnd)
	if srv.scanMod.Pending() == 0 {
		t.Fatal("the first hour end finds no scanner buffered: the test needs another seed")
	}
	if meta, _, err := dur.Manager().LatestSnapshot(); err != nil || meta.LastSeq != uint64(hourEnd) {
		t.Fatalf("hour end after %d events with %d scanners buffered: latest snapshot is through seq %d (%v)",
			hourEnd, srv.scanMod.Pending(), meta.LastSeq, err)
	}
	stop := len(events) * 2 / 3
	feedHours(b, events, hourEnd, stop)
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}

	// Second process: snapshot + WAL tail, then the rest of the stream.
	b, srv, dur = open()
	rec := dur.Recovery()
	if rec.SnapshotSeq == 0 || rec.ReplayedEvents == 0 {
		t.Fatalf("recovery did not use snapshot + WAL tail: %+v", rec)
	}
	if got := rec.Events(); got != uint64(stop) {
		t.Fatalf("recovered %d events, the first process applied %d", got, stop)
	}
	feedHours(b, events, stop, len(events))
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	same("recovered mid-stream", srv)

	// Third process: nothing left to replay, and the final flush's
	// records are there.
	_, srv, dur = open()
	if rec := dur.Recovery(); rec.ReplayedEvents != 0 || rec.Events() != uint64(len(events)) {
		t.Fatalf("restart after the end of input replayed the WAL: %+v", rec)
	}
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	same("restarted after the end of input", srv)
}
