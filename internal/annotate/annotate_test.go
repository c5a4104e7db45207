package annotate

import (
	"math/rand"
	"testing"
	"time"

	"exiot/internal/device"
	"exiot/internal/enrich"
	"exiot/internal/features"
	"exiot/internal/feed"
	"exiot/internal/organizer"
	"exiot/internal/packet"
	"exiot/internal/recog"
	"exiot/internal/registry"
	"exiot/internal/zmap"
)

var t0 = time.Date(2020, 12, 9, 7, 0, 0, 0, time.UTC)

// constScore is a stub classifier with a fixed probability.
type constScore float64

func (c constScore) PredictProba([]float64) float64 { return float64(c) }

func testBatch(t *testing.T, ip packet.IP, n int) organizer.Batch {
	t.Helper()
	sample := make([]packet.Packet, 0, n)
	for i := 0; i < n; i++ {
		p := packet.Packet{
			Timestamp: t0.Add(time.Duration(i) * time.Second),
			Proto:     packet.TCP,
			SrcIP:     ip,
			DstIP:     packet.IP(0x0A000000 + uint32(i)*131),
			DstPort:   23,
			Flags:     packet.FlagSYN,
			TTL:       48,
			Window:    5840,
		}
		p.Normalize()
		sample = append(sample, p)
	}
	return organizer.Batch{
		IP:         ip,
		IPString:   ip.String(),
		FirstSeen:  t0.Add(-2 * time.Minute),
		DetectedAt: t0,
		Sample:     sample,
		SampleSize: n,
	}
}

func testAnnotator(t *testing.T) (*Annotator, *registry.Registry) {
	t.Helper()
	reg := registry.Build(registry.Config{Seed: 5, Blocks: 256})
	return New(enrich.New(reg)), reg
}

func trainedModel(t *testing.T, score float64) *Model {
	t.Helper()
	norm, err := features.FitNormalizer([][]float64{make([]float64, features.Dim)})
	if err != nil {
		t.Fatal(err)
	}
	return &Model{Classifier: constScore(score), Normalizer: norm}
}

func TestBannerLabelTakesPrecedence(t *testing.T) {
	a, reg := testAnnotator(t)
	a.SetModel(trainedModel(t, 0.01)) // model says non-IoT
	rng := newRand(1)
	ip := reg.PickInfectedHost(rng)
	b := testBatch(t, ip, 100)
	match := &recog.Match{IoT: true, Vendor: "Foscam", Type: "IP Camera", Model: "FI9821P", Firmware: "1.11.1.8"}
	rec, err := annotateOne(a, &b, &zmap.HostResult{}, match)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.IsIoT() || rec.LabelSource != feed.SourceBanner {
		t.Errorf("banner label lost: %+v", rec)
	}
	if rec.Vendor != "Foscam" || rec.Model != "FI9821P" || rec.Firmware != "1.11.1.8" {
		t.Errorf("device details lost: %+v", rec)
	}
	if rec.Score != 1 {
		t.Errorf("banner-labeled IoT score = %v, want 1", rec.Score)
	}
}

func TestModelPrediction(t *testing.T) {
	a, reg := testAnnotator(t)
	rng := newRand(2)
	ip := reg.PickInfectedHost(rng)
	b := testBatch(t, ip, 100)

	a.SetModel(trainedModel(t, 0.9))
	rec, err := annotateOne(a, &b, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.IsIoT() || rec.LabelSource != feed.SourceModel || rec.Score != 0.9 {
		t.Errorf("model prediction wrong: %+v", rec)
	}

	a.SetModel(trainedModel(t, 0.2))
	rec, err = annotateOne(a, &b, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.IsIoT() || rec.Score != 0.2 {
		t.Errorf("low-score prediction wrong: %+v", rec)
	}
	if rec.DeviceType != string(device.TypeDesktop) {
		t.Errorf("non-IoT device type = %q, want Desktop (non-IoT)", rec.DeviceType)
	}
}

func TestBootstrapWithoutModel(t *testing.T) {
	a, reg := testAnnotator(t)
	if a.model != nil {
		t.Fatal("fresh annotator claims a model")
	}
	rng := newRand(3)
	ip := reg.PickInfectedHost(rng)
	b := testBatch(t, ip, 60)
	rec, err := annotateOne(a, &b, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.LabelSource != SourceNone || rec.Score != 0.5 {
		t.Errorf("bootstrap record = %+v", rec)
	}
}

func TestAnnotateEnriches(t *testing.T) {
	a, reg := testAnnotator(t)
	a.SetModel(trainedModel(t, 0.8))
	rng := newRand(4)
	ip := reg.PickInfectedHost(rng)
	b := testBatch(t, ip, 100)
	rec, err := annotateOne(a, &b, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Country == "" || rec.ASN == 0 || rec.RDNS == "" {
		t.Errorf("enrichment missing: %+v", rec)
	}
	if len(rec.TargetPorts) == 0 || rec.TargetPorts[23] != 100 {
		t.Errorf("port stats = %v", rec.TargetPorts)
	}
	if rec.LastSeen.Before(rec.DetectedAt) {
		t.Errorf("LastSeen %v before DetectedAt %v", rec.LastSeen, rec.DetectedAt)
	}
	if !rec.Active {
		t.Error("fresh record must be active")
	}
}

func TestAnnotateEmptySample(t *testing.T) {
	a, _ := testAnnotator(t)
	b := organizer.Batch{IPString: "1.2.3.4"}
	if _, err := annotateOne(a, &b, nil, nil); err == nil {
		t.Error("empty sample should error")
	}
}

func TestScanResultsAttached(t *testing.T) {
	a, reg := testAnnotator(t)
	a.SetModel(trainedModel(t, 0.9))
	rng := newRand(5)
	ip := reg.PickInfectedHost(rng)
	b := testBatch(t, ip, 80)
	scan := &zmap.HostResult{
		OpenPorts: []uint16{80, 23},
		Banners:   []zmap.Banner{{Port: 80, Protocol: "http", Banner: "Server: Boa/0.94.13"}},
	}
	rec, err := annotateOne(a, &b, scan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.OpenPorts) != 2 || len(rec.Banners) != 1 {
		t.Errorf("scan results lost: %+v", rec)
	}
}

// annotateOne runs one flow through AnnotateBatch, the shipped path.
func annotateOne(a *Annotator, b *organizer.Batch, scan *zmap.HostResult, match *recog.Match) (feed.Record, error) {
	recs, errs := a.AnnotateBatch([]Job{{Batch: b, Scan: scan, Match: match}}, 1)
	return recs[0], errs[0]
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestAnnotateBatchSerialAllocs pins what the extraction scratch and the
// set-free flow statistics buy (go1.24). A 50-job serial AnnotateBatch
// allocated 1,914 objects when every flow rebuilt its 24 columns, 716
// with one warm scratch while enrich still built a destination set per
// flow, and 566 with neither; the budget sits between the last two, so
// bringing back either per-flow cost fails here.
func TestAnnotateBatchSerialAllocs(t *testing.T) {
	const budget = 640
	a, reg := testAnnotator(t)
	a.SetModel(trainedModel(t, 0.8))
	rng := newRand(6)
	batches := make([]organizer.Batch, 50)
	jobs := make([]Job, len(batches))
	for i := range batches {
		batches[i] = testBatch(t, reg.PickInfectedHost(rng), 100)
		jobs[i] = Job{Batch: &batches[i]}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, errs := a.AnnotateBatch(jobs, 1); errs[0] != nil {
			t.Fatal(errs[0])
		}
	})
	if allocs > budget {
		t.Errorf("50-job serial AnnotateBatch allocates %.0f objects, budget %d", allocs, budget)
	}
}
