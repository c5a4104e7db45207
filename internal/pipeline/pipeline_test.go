package pipeline

import (
	"testing"
	"time"

	"exiot/internal/durable"
	"exiot/internal/feed"
	"exiot/internal/notify"
	"exiot/internal/packet"
	"exiot/internal/scanmod"
	"exiot/internal/simnet"
	"exiot/internal/trainer"
)

// testLocal builds a small world and runs the local pipeline over it for
// the given number of hours.
func testLocal(t *testing.T, seed int64, hours int) (*Local, *simnet.World) {
	t.Helper()
	w, lcfg := testWorld(seed, hours)
	l := NewLocal(lcfg, w, w.Registry(), &notify.MemoryMailer{})
	runHours(l, w, hours)
	return l, w
}

// runHours drives l over the first hours of w and finishes it.
func runHours(l *Local, w *simnet.World, hours int) {
	start := w.Start()
	for h := 0; h < hours; h++ {
		hour := start.Add(time.Duration(h) * time.Hour)
		l.ProcessHour(w.GenerateHour(hour), hour)
	}
	l.Finish(start.Add(time.Duration(hours) * time.Hour))
}

// testWorld builds testLocal's small world and pipeline configuration.
func testWorld(seed int64, hours int) (*simnet.World, LocalConfig) {
	cfg := simnet.DefaultConfig(seed)
	cfg.NumInfected = 120
	cfg.NumNonIoT = 25
	cfg.NumResearch = 3
	cfg.NumMisconfig = 15
	cfg.NumBackscat = 5
	cfg.Days = (hours + 23) / 24
	cfg.MaxPacketsPerHostHour = 1200
	w := simnet.NewWorld(cfg)

	lcfg := DefaultLocalConfig()
	lcfg.Server.ScanMod = scanmod.Config{BatchSize: 25, BatchWait: 30 * time.Minute}
	lcfg.Server.Trainer = trainer.Config{SearchIterations: 2, Seed: seed}
	lcfg.Server.Notify = notify.Config{NotifyWhois: true}
	return w, lcfg
}

func TestEndToEndProducesRecords(t *testing.T) {
	l, w := testLocal(t, 100, 8)
	srv := l.Server()
	c := srv.Counters()
	if c.RecordsCreated == 0 {
		t.Fatal("pipeline produced no records")
	}
	if c.Reports == 0 {
		t.Error("no per-second reports flowed through")
	}
	if st := l.Sampler().DetectorStats(); st.ScannersFound == 0 {
		t.Error("detector found no scanners")
	}

	// Every record's source must be a real scanning host — misconfig
	// bursts and backscatter must never materialize.
	for _, rec := range srv.Historical().Find(nil) {
		h, ok := w.HostByIP(mustIP(t, rec.IP))
		if !ok {
			t.Fatalf("record for unknown host %s", rec.IP)
		}
		switch h.Kind {
		case simnet.KindMisconfigured:
			t.Errorf("misconfigured node %s entered the feed", rec.IP)
		case simnet.KindBackscatter:
			t.Errorf("backscatter source %s entered the feed", rec.IP)
		}
	}
}

func TestBannerLabelsFlowIntoTrainer(t *testing.T) {
	l, _ := testLocal(t, 101, 8)
	c := l.Server().Counters()
	if c.BannersLabeled == 0 {
		t.Fatal("no banner-labeled flows reached the trainer")
	}
	if l.Server().Trainer().WindowSize() == 0 {
		t.Error("trainer window empty")
	}
}

func TestModelRetrainsAndPredicts(t *testing.T) {
	l, w := testLocal(t, 102, 30) // > 24 h forces a retrain
	srv := l.Server()
	if srv.Counters().ModelRetrains == 0 {
		t.Skip("not enough labeled data for a retrain in this seed")
	}
	m := srv.LastModel()
	if m == nil {
		t.Fatal("retrain counted but no model kept")
	}
	if m.AUC < 0.7 {
		t.Errorf("model AUC = %.3f; the simulated classes should be separable", m.AUC)
	}
	// Model-labeled records must exist after the first retrain.
	modelLabeled := 0
	correct := 0
	for _, rec := range srv.Historical().Find(nil) {
		if rec.LabelSource != feed.SourceModel {
			continue
		}
		modelLabeled++
		h, ok := w.HostByIP(mustIP(t, rec.IP))
		if !ok {
			continue
		}
		if rec.IsIoT() == h.IsIoT() {
			correct++
		}
	}
	if modelLabeled == 0 {
		t.Fatal("no model-labeled records after retrain")
	}
	if acc := float64(correct) / float64(modelLabeled); acc < 0.7 {
		t.Errorf("model-label accuracy vs ground truth = %.3f over %d records", acc, modelLabeled)
	}
}

// TestWALHoldsOnlyEvents: a durable run long enough to retrain logs one
// WAL record per event it appended and nothing else. Recovery recomputes
// retrains from the restored window, so a retrain writes no record.
func TestWALHoldsOnlyEvents(t *testing.T) {
	const hours = 30 // > 24 h forces a retrain
	dir := t.TempDir()
	w, lcfg := testWorld(102, hours)
	// One segment: compaction must not drop records before the count.
	lcfg.Durable = DurableConfig{Dir: dir, Sync: durable.SyncOff, SegmentBytes: 1 << 30}
	l := NewLocal(lcfg, w, w.Registry(), &notify.MemoryMailer{})
	runHours(l, w, hours)
	d := l.Durable()
	d.mu.Lock()
	appended := d.events
	d.mu.Unlock()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := l.Server().Counters().ModelRetrains; got < 1 {
		t.Fatalf("%d retrains in %d hours, want at least one", got, hours)
	}

	info, err := durable.Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	records := 0
	for _, seg := range info.Segments {
		records += seg.Records
	}
	if appended == 0 || uint64(records) != appended {
		t.Fatalf("the WAL holds %d records, Durable appended %d events", records, appended)
	}
}

func TestFlowEndsUpdateRecords(t *testing.T) {
	l, _ := testLocal(t, 103, 10)
	srv := l.Server()
	ended := 0
	for _, rec := range srv.Historical().Find(nil) {
		if !rec.Active {
			ended++
			if rec.EndedAt == nil {
				t.Errorf("inactive record %s lacks EndedAt", rec.IP)
			}
		}
	}
	if ended == 0 {
		t.Error("no flows ended over the run (Finish should close all)")
	}
	if n := activeCount(srv); n != 0 {
		t.Errorf("%d flows still active after Finish", n)
	}
}

func TestBenignResearchScanners(t *testing.T) {
	l, w := testLocal(t, 104, 8)
	benign := 0
	for _, rec := range l.Server().Historical().Find(nil) {
		h, ok := w.HostByIP(mustIP(t, rec.IP))
		if !ok {
			continue
		}
		if h.Kind == simnet.KindResearchScanner {
			if !rec.Benign {
				t.Errorf("research scanner %s not marked benign", rec.IP)
			}
			benign++
		} else if rec.Benign {
			t.Errorf("non-research host %s marked benign (rdns %s)", rec.IP, rec.RDNS)
		}
	}
	if benign == 0 {
		t.Skip("no research scanner records this seed")
	}
}

func TestAppearedAtLagsDetection(t *testing.T) {
	l, _ := testLocal(t, 105, 6)
	for _, rec := range l.Server().Historical().Find(nil) {
		lag := rec.AppearedAt.Sub(rec.DetectedAt)
		if lag < 3*time.Hour {
			t.Errorf("record %s appeared %v after detection; collection delay missing", rec.IP, lag)
		}
		if lag > 12*time.Hour {
			t.Errorf("record %s appeared %v after detection; implausibly late", rec.IP, lag)
		}
	}
}

func TestSnapshotAggregation(t *testing.T) {
	l, _ := testLocal(t, 106, 8)
	snap := l.Server().Snapshot()
	if snap.TotalRecords == 0 {
		t.Fatal("empty snapshot")
	}
	if snap.IoTRecords > snap.TotalRecords {
		t.Error("IoT records exceed total")
	}
	if len(snap.TopCountries) == 0 && snap.IoTRecords > 0 {
		t.Error("no country aggregation despite IoT records")
	}
	if len(snap.TopCountries) > 10 || len(snap.TopPorts) > 10 {
		t.Error("top-N trim not applied")
	}
}

func TestWhoisNotifications(t *testing.T) {
	cfg := simnet.DefaultConfig(107)
	cfg.NumInfected = 120
	cfg.NumNonIoT = 10
	cfg.Days = 1
	w := simnet.NewWorld(cfg)

	mailer := &notify.MemoryMailer{}
	lcfg := DefaultLocalConfig()
	lcfg.Server.ScanMod = scanmod.Config{BatchSize: 10, BatchWait: 20 * time.Minute}
	lcfg.Server.Trainer = trainer.Config{SearchIterations: 2, Seed: 107}
	lcfg.Server.Notify = notify.Config{NotifyWhois: true}
	l := NewLocal(lcfg, w, w.Registry(), mailer)
	start := w.Start()
	for h := 0; h < 8; h++ {
		hour := start.Add(time.Duration(h) * time.Hour)
		l.ProcessHour(w.GenerateHour(hour), hour)
	}
	l.Finish(start.Add(8 * time.Hour))

	msgs := mailer.Messages()
	if l.Server().Counters().EmailsSent == 0 {
		t.Skip("no IoT-labeled records with abuse contacts this seed")
	}
	if len(msgs) == 0 {
		t.Fatal("emails counted but none captured")
	}
	for _, m := range msgs {
		if m.To == "" || m.Subject == "" {
			t.Errorf("malformed notification: %+v", m)
		}
	}
}

func mustIP(t *testing.T, s string) packet.IP {
	t.Helper()
	parsed, err := packet.ParseIP(s)
	if err != nil {
		t.Fatalf("bad ip %q: %v", s, err)
	}
	return parsed
}

func TestRestoreModelAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := simnet.DefaultConfig(108)
	cfg.NumInfected = 120
	cfg.NumNonIoT = 25
	cfg.Days = 2
	w := simnet.NewWorld(cfg)

	lcfg := DefaultLocalConfig()
	lcfg.Server.ScanMod = scanmod.Config{BatchSize: 25, BatchWait: 30 * time.Minute}
	lcfg.Server.Trainer = trainer.Config{SearchIterations: 2, Seed: 108, ModelDir: dir}
	l := NewLocal(lcfg, w, w.Registry(), nil)
	start := w.Start()
	for h := 0; h < 30; h++ {
		hour := start.Add(time.Duration(h) * time.Hour)
		l.ProcessHour(w.GenerateHour(hour), hour)
	}
	l.Finish(start.Add(30 * time.Hour))
	if l.Server().Counters().ModelRetrains == 0 {
		t.Skip("no retrain this seed; nothing archived")
	}

	// A fresh server (simulating a restart) restores the archived model
	// and can classify without re-bootstrapping.
	fresh := NewServer(lcfg.Server, w, w.Registry(), nil)
	if err := fresh.RestoreModel(dir); err != nil {
		t.Fatal(err)
	}
	if fresh.LastModel() == nil {
		t.Fatal("restored server has no model")
	}
	// Restoring from an empty archive is a no-op, not an error.
	empty := NewServer(lcfg.Server, w, w.Registry(), nil)
	if err := empty.RestoreModel(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if empty.LastModel() != nil {
		t.Error("empty archive restored a model")
	}
}

func TestTrafficAggregation(t *testing.T) {
	l, _ := testLocal(t, 109, 6)
	hours := l.Server().Traffic()
	if len(hours) == 0 {
		t.Fatal("no traffic hours aggregated")
	}
	var total int64
	for i, h := range hours {
		total += h.Total
		if h.Total < h.TCP {
			t.Errorf("hour %d: TCP exceeds total", i)
		}
		if h.Seconds == 0 || h.PeakPPS == 0 {
			t.Errorf("hour %d: per-second accounting missing: %+v", i, h)
		}
		if len(h.TopPorts) > 10 {
			t.Errorf("hour %d: port map not trimmed (%d entries)", i, len(h.TopPorts))
		}
		if i > 0 && !hours[i-1].Hour.Before(h.Hour) {
			t.Error("hours not sorted")
		}
	}
	// The aggregate must match what the detector processed (reports cover
	// every packet).
	processed := l.Sampler().DetectorStats().Processed
	if total < processed*9/10 || total > processed {
		t.Errorf("aggregated %d packets, detector processed %d", total, processed)
	}
}
