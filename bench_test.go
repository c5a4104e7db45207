// Benchmarks regenerating every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`), plus ablation
// benches for the design choices DESIGN.md calls out and micro-benchmarks
// of the hot paths. Each table/figure bench reports its headline numbers
// as custom benchmark metrics so the paper-vs-measured comparison appears
// directly in the benchmark output.
package exiot_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"exiot/internal/experiments"
	"exiot/internal/features"
	"exiot/internal/ml"
	"exiot/internal/packet"
	"exiot/internal/pipeline"
	"exiot/internal/simnet"
	"exiot/internal/trw"
)

// benchEnv is shared across table benches: building it runs the full
// pipeline over a simulated day and dominates setup cost.
var (
	benchEnvOnce sync.Once
	benchEnvVal  *experiments.Env
	benchEnvErr  error
)

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		scale := experiments.QuickScale(2021)
		scale.Infected = 500
		scale.NonIoT = 90
		scale.Days = 2
		benchEnvVal, benchEnvErr = experiments.NewEnv(scale)
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnvVal
}

// BenchmarkTableIIIVolume regenerates Table III (feed volumes).
func BenchmarkTableIIIVolume(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	var r experiments.TableIIIResult
	for i := 0; i < b.N; i++ {
		r = experiments.TableIII(env)
	}
	b.ReportMetric(r.Rows[0].AllPerDay, "exiot-all/day")
	b.ReportMetric(r.AllRatioGN, "all-ratio-vs-GN(paper=3.5)")
	b.ReportMetric(r.IoTRatioGN, "iot-ratio-vs-GN(paper=7.1)")
}

// BenchmarkTableIVContribution regenerates Table IV (differential and
// exclusive contribution).
func BenchmarkTableIVContribution(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	var r experiments.TableIVResult
	for i := 0; i < b.N; i++ {
		r = experiments.TableIV(env)
	}
	for _, row := range r.Rows {
		switch row.FeedName {
		case "GreyNoise":
			b.ReportMetric(row.Differential, "diff-GN(paper=0.790)")
		case "DShield":
			b.ReportMetric(row.Differential, "diff-DS(paper=0.936)")
		}
	}
	b.ReportMetric(r.Uniq, "uniq(paper=0.766)")
}

// BenchmarkTableVSnapshot regenerates Table V (infection snapshot).
func BenchmarkTableVSnapshot(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	var r experiments.TableVResult
	for i := 0; i < b.N; i++ {
		r = experiments.TableV(env)
	}
	if len(r.Countries) > 0 {
		b.ReportMetric(r.Countries[0].Pct, "top-country-pct(paper=43.5-CN)")
	}
	if len(r.Ports) > 0 {
		b.ReportMetric(r.Ports[0].Pct, "top-port-pct(paper=43.3-telnet)")
	}
	b.ReportMetric(float64(r.Instances), "instances")
}

// BenchmarkLatency regenerates the §V-B controlled-scan latency
// experiment. Each iteration runs a dedicated small deployment.
func BenchmarkLatency(b *testing.B) {
	scale := experiments.QuickScale(2022)
	scale.Infected = 120
	scale.NonIoT = 25
	var r experiments.LatencyResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Latency(scale)
		if err != nil {
			b.Fatal(err)
		}
	}
	if r.Found {
		b.ReportMetric(r.FeedLatency.Hours(), "feed-latency-h(paper=5.2)")
		b.ReportMetric(r.StartError.Seconds(), "start-err-s(paper=24)")
		b.ReportMetric(r.EndError.Minutes(), "end-err-m(paper=13)")
	}
}

// BenchmarkAccuracyCoverage regenerates the §V-B precision/coverage
// measurement.
func BenchmarkAccuracyCoverage(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	var r experiments.AccuracyResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Accuracy(env)
		if err != nil {
			b.Skip(err)
		}
	}
	b.ReportMetric(100*r.Precision, "precision-pct(paper=94.6)")
	b.ReportMetric(100*r.Coverage, "coverage-pct(paper=77.2)")
}

// BenchmarkValidation regenerates the §V-A cross-validation.
func BenchmarkValidation(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	var r experiments.ValidationResult
	for i := 0; i < b.N; i++ {
		r = experiments.Validation(env)
	}
	b.ReportMetric(100*r.OverallRate, "validated-pct(paper=70)")
	if r.CzechIndicators > 0 {
		b.ReportMetric(100*r.CzechRate, "cz-validated-pct(paper=83)")
	}
}

// BenchmarkModelSelection regenerates the RF/SVM/GNB comparison.
func BenchmarkModelSelection(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	var r experiments.ModelSelectionResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.ModelSelection(env)
		if err != nil {
			b.Skip(err)
		}
	}
	for _, row := range r.Rows {
		switch row.Name {
		case "RandomForest":
			b.ReportMetric(row.AUC, "rf-auc")
		case "LinearSVM":
			b.ReportMetric(row.AUC, "svm-auc")
		case "GaussianNB":
			b.ReportMetric(row.AUC, "gnb-auc")
		}
	}
}

// BenchmarkFlowDetection regenerates the throughput figure: one hour of
// telescope traffic through the backscatter filter + TRW detector.
func BenchmarkFlowDetection(b *testing.B) {
	scale := experiments.QuickScale(2023)
	var r experiments.ThroughputResult
	for i := 0; i < b.N; i++ {
		r = experiments.Throughput(scale)
	}
	b.ReportMetric(r.PacketsPerSec, "pkts/s")
	b.ReportMetric(r.SpeedupVsRealtime, "x-realtime")
}

// BenchmarkBannerAvailability regenerates the §VI limitation measurement.
func BenchmarkBannerAvailability(b *testing.B) {
	scale := experiments.QuickScale(2024)
	scale.Infected = 2000
	var r experiments.BannerAvailabilityResult
	for i := 0; i < b.N; i++ {
		r = experiments.BannerAvailability(scale)
	}
	b.ReportMetric(100*float64(r.ReturningBanner)/float64(r.Infected), "banner-pct(paper<10)")
	b.ReportMetric(100*float64(r.TextualBanner)/float64(r.Infected), "textual-pct(paper=3)")
}

// --- ablation benches (design choices from DESIGN.md) ---

// BenchmarkAblationTRWThreshold sweeps the TRW operating point.
func BenchmarkAblationTRWThreshold(b *testing.B) {
	scale := experiments.QuickScale(2025)
	var r experiments.TRWAblationResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationTRW(scale)
	}
	for _, row := range r.Rows {
		if row.Threshold == 100 && row.MinDuration == time.Minute {
			b.ReportMetric(float64(row.ScannersFound), "scanners@paper-op")
			b.ReportMetric(float64(row.MisconfigCaught), "misconfig@paper-op")
		}
	}
}

// BenchmarkAblationSampleSize sweeps the 200-packet sample size.
func BenchmarkAblationSampleSize(b *testing.B) {
	scale := experiments.QuickScale(2026)
	var r experiments.SampleSizeAblationResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationSampleSize(scale)
	}
	for _, row := range r.Rows {
		if row.SampleSize == 200 {
			b.ReportMetric(row.AUC, "auc@200")
		}
		if row.SampleSize == 25 {
			b.ReportMetric(row.AUC, "auc@25")
		}
	}
}

// BenchmarkAblationFeatureSet sweeps feature subsets.
func BenchmarkAblationFeatureSet(b *testing.B) {
	scale := experiments.QuickScale(2027)
	var r experiments.FeatureSetAblationResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationFeatureSet(scale)
	}
	for _, row := range r.Rows {
		switch row.Name {
		case "full (120)":
			b.ReportMetric(row.AUC, "auc-full")
		case "ports-only":
			b.ReportMetric(row.AUC, "auc-ports-only")
		}
	}
}

// BenchmarkAblationForestSize sweeps the ensemble size.
func BenchmarkAblationForestSize(b *testing.B) {
	scale := experiments.QuickScale(2028)
	var r experiments.ForestSizeAblationResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationForestSize(scale)
	}
	for _, row := range r.Rows {
		if row.Trees == 100 {
			b.ReportMetric(row.AUC, "auc@100trees")
		}
	}
}

// BenchmarkAblationTrainingWindow sweeps the retrain window.
func BenchmarkAblationTrainingWindow(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	var r experiments.WindowAblationResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationTrainingWindow(env)
	}
	if len(r.Rows) > 0 {
		b.ReportMetric(r.Rows[len(r.Rows)-1].AUC, "auc-longest-window")
	}
}

// --- micro-benchmarks of the hot paths ---

// BenchmarkPacketMarshal measures the wire codec's encode path.
func BenchmarkPacketMarshal(b *testing.B) {
	p := packet.Packet{
		Proto: packet.TCP, SrcIP: 0x01020304, DstIP: 0x0a000001,
		SrcPort: 44123, DstPort: 23, Seq: 12345, Flags: packet.FlagSYN,
		Window: 5840, TTL: 48,
		Options: packet.TCPOptions{HasMSS: true, MSS: 1460, NOP: true},
	}
	p.Normalize()
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = p.Marshal(buf[:0])
	}
	_ = buf
}

// BenchmarkPacketUnmarshal measures the wire codec's decode path.
func BenchmarkPacketUnmarshal(b *testing.B) {
	p := packet.Packet{
		Proto: packet.TCP, SrcIP: 0x01020304, DstIP: 0x0a000001,
		SrcPort: 44123, DstPort: 23, Seq: 12345, Flags: packet.FlagSYN,
		Window: 5840, TTL: 48,
		Options: packet.TCPOptions{HasMSS: true, MSS: 1460, NOP: true},
	}
	p.Normalize()
	buf := p.Marshal(nil)
	var q packet.Packet
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := q.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTRWProcess measures per-packet detector cost on a realistic
// packet mix.
func BenchmarkTRWProcess(b *testing.B) {
	cfg := simnet.DefaultConfig(2030)
	cfg.NumInfected = 100
	cfg.NumNonIoT = 20
	cfg.MaxPacketsPerHostHour = 2000
	w := simnet.NewWorld(cfg)
	pkts := w.GenerateHour(w.Start())
	if len(pkts) == 0 {
		b.Fatal("no packets")
	}
	det := trw.NewDetector(trw.Default(), func(trw.Event) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Process(&pkts[i%len(pkts)])
	}
}

// BenchmarkFeatureExtraction measures the 120-dim flow-vector build.
func BenchmarkFeatureExtraction(b *testing.B) {
	cfg := simnet.DefaultConfig(2031)
	cfg.NumInfected = 5
	cfg.NumNonIoT = 0
	cfg.NumMisconfig = 0
	cfg.NumBackscat = 0
	w := simnet.NewWorld(cfg)
	pkts := w.GenerateHour(w.Start())
	if len(pkts) < 200 {
		b.Fatal("not enough packets")
	}
	sample := pkts[:200]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := features.RawVector(sample); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestPredict measures single-flow classification cost.
func BenchmarkForestPredict(b *testing.B) {
	var ds ml.Dataset
	for i := 0; i < 400; i++ {
		x := make([]float64, features.Dim)
		for j := range x {
			x[j] = float64((i*j)%97) / 97
			if i%2 == 1 {
				x[j] += 1.5
			}
		}
		ds.Append(x, i%2)
	}
	forest := ml.TrainForest(&ds, ml.ForestConfig{NumTrees: 100, Seed: 1})
	x := ds.X[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forest.PredictProba(x)
	}
}

// BenchmarkAblationForestLayout compares the pointer-tree forest against
// its flattened node-arena form (and the arena's batch entry point) on
// identical inputs — the layout ablation behind the classify hot path.
// Scores are bit-identical across all three; only locality and
// allocation behaviour differ.
func BenchmarkAblationForestLayout(b *testing.B) {
	// A noisy, overlapping dataset: trees grow deep (hundreds of nodes),
	// which is where node size and arena locality decide the walk cost —
	// a trivially separable set yields depth-1 trees and hides the
	// layout entirely.
	r := rand.New(rand.NewSource(9))
	var ds ml.Dataset
	for i := 0; i < 2000; i++ {
		x := make([]float64, features.Dim)
		for j := range x {
			x[j] = r.Float64()
		}
		y := 0
		if x[3]+x[40]*x[90]+0.3*x[117] > 0.95 {
			y = 1
		}
		if r.Float64() < 0.15 {
			y = 1 - y
		}
		ds.Append(x, y)
	}
	forest := ml.TrainForest(&ds, ml.ForestConfig{NumTrees: 100, Seed: 1})
	flat := forest.Flatten()

	b.Run("pointer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			forest.PredictProba(ds.X[i%len(ds.X)])
		}
	})
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			flat.PredictProba(ds.X[i%len(ds.X)])
		}
	})
	b.Run("flat-batch", func(b *testing.B) {
		rows := ds.X[:256]
		out := make([]float64, len(rows))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			flat.PredictProbaBatch(rows, out)
		}
		// Normalize to per-row cost so the three sub-benches compare
		// directly.
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/row")
	})
}

// BenchmarkIngestThroughput measures the full ingest hot path — hour
// generation plus TRW detection — at GOMAXPROCS 1, 4 and the machine's
// own (the workers=N sub-benchmark runs at GOMAXPROCS N), reporting
// pkts/sec and ns/pkt so the parallel speedup is visible in the bench
// trajectory. Detection is serial at every count; generation fans out
// across GOMAXPROCS, and its output is proven identical
// (TestParallelIngestEquivalence).
func BenchmarkIngestThroughput(b *testing.B) {
	cfg := simnet.DefaultConfig(2040)
	cfg.NumInfected = 400
	cfg.NumNonIoT = 60
	cfg.NumMisconfig = 40
	cfg.NumBackscat = 10
	cfg.MaxPacketsPerHostHour = 2000
	w := simnet.NewWorld(cfg)
	hour := w.Start().Add(18 * time.Hour)
	hourEnd := hour.Add(time.Hour)

	counts := []int{1, 4}
	if gmp := runtime.GOMAXPROCS(0); gmp != 1 && gmp != 4 {
		counts = append(counts, gmp)
	}
	for _, procs := range counts {
		b.Run(fmt.Sprintf("workers=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			b.ReportAllocs()
			var pkts, wall int64
			for i := 0; i < b.N; i++ {
				start := time.Now()
				hourPkts := w.GenerateHour(hour)
				sampler := pipeline.NewSampler(trw.Default(), 0, func(pipeline.SamplerEvent) {})
				sampler.ProcessHour(hourPkts, hourEnd)
				sampler.Flush(hourEnd)
				wall += time.Since(start).Nanoseconds()
				pkts += int64(len(hourPkts))
			}
			if pkts == 0 {
				b.Fatal("no packets generated")
			}
			b.ReportMetric(float64(pkts)/(float64(wall)/1e9), "pkts/sec")
			b.ReportMetric(float64(wall)/float64(pkts), "ns/pkt")
		})
	}
}

// BenchmarkWorldGeneration measures traffic synthesis for one hour.
func BenchmarkWorldGeneration(b *testing.B) {
	cfg := simnet.DefaultConfig(2032)
	cfg.NumInfected = 100
	cfg.NumNonIoT = 20
	w := simnet.NewWorld(cfg)
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(w.GenerateHour(w.Start()))
	}
	b.ReportMetric(float64(n), "pkts/hour")
}

// BenchmarkCampaignInference regenerates the campaign-analysis extension.
func BenchmarkCampaignInference(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	var r experiments.CampaignResult
	for i := 0; i < b.N; i++ {
		r = experiments.Campaigns(env)
	}
	b.ReportMetric(float64(len(r.Campaigns)), "campaigns")
	b.ReportMetric(r.FamilyPurity, "family-purity")
}

// BenchmarkAdaptivity regenerates the emerging-botnet experiment. Each
// iteration runs a dedicated multi-day deployment.
func BenchmarkAdaptivity(b *testing.B) {
	scale := experiments.QuickScale(2033)
	scale.Infected = 200
	scale.NonIoT = 40
	var r experiments.AdaptivityResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Adaptivity(scale)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.FirstDayRate, "emergence-day-iot-rate")
	b.ReportMetric(r.LastDayRate, "final-day-iot-rate")
}

// --- back-half throughput benches ---

// benchBackHalf caches a captured sampler event stream: the serial
// sampler runs once over a fixed world, and every bench iteration
// replays the identical events into a fresh pipeline.BackHalf.
var (
	benchBackHalfOnce   sync.Once
	benchBackHalfEvents []stampedBenchEvent
	benchBackHalfWorld  *simnet.World
)

// stampedBenchEvent is one sampler event and the end of its hour.
type stampedBenchEvent struct {
	e       pipeline.SamplerEvent
	hourEnd time.Time
}

func backHalfEvents(b *testing.B) ([]stampedBenchEvent, *simnet.World) {
	b.Helper()
	benchBackHalfOnce.Do(func() {
		cfg := simnet.DefaultConfig(2050)
		cfg.NumInfected = 300
		cfg.NumNonIoT = 50
		cfg.NumMisconfig = 30
		cfg.NumBackscat = 8
		cfg.MaxPacketsPerHostHour = 1200
		w := simnet.NewWorld(cfg)
		var hourEnd time.Time
		sampler := pipeline.NewSampler(trw.Default(), 0, func(e pipeline.SamplerEvent) {
			benchBackHalfEvents = append(benchBackHalfEvents, stampedBenchEvent{e, hourEnd})
		})
		start := w.Start()
		for h := 0; h < 6; h++ {
			hour := start.Add(time.Duration(h) * time.Hour)
			hourEnd = hour.Add(time.Hour)
			sampler.ProcessHour(w.GenerateHour(hour), hourEnd)
		}
		sampler.Flush(hourEnd)
		benchBackHalfWorld = w
	})
	if len(benchBackHalfEvents) == 0 {
		b.Fatal("no sampler events captured")
	}
	return benchBackHalfEvents, benchBackHalfWorld
}

// BenchmarkBackHalfThroughput measures the feed back half — probe,
// classify, enrich, store — on a fixed event stream at GOMAXPROCS 1, 4
// and the machine's own (workers=N runs at GOMAXPROCS N), reporting
// events/sec and ns/event. Delivery is BackHalf.Deliver at every count,
// with one EndHour at the end of input; GOMAXPROCS only sizes the
// scan-batch flush (probe pool + annotate fan-out), whose output is
// proven identical (TestBackHalfFeedEquivalence).
func BenchmarkBackHalfThroughput(b *testing.B) {
	events, w := backHalfEvents(b)
	counts := []int{1, 4}
	if gmp := runtime.GOMAXPROCS(0); gmp != 1 && gmp != 4 {
		counts = append(counts, gmp)
	}
	for _, procs := range counts {
		b.Run(fmt.Sprintf("workers=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			b.ReportAllocs()
			var wall int64
			for i := 0; i < b.N; i++ {
				back, err := pipeline.NewBackHalf(pipeline.DefaultLocalConfig(), w, w.Registry(), nil)
				if err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				for _, se := range events {
					back.Deliver(se.e, se.hourEnd)
				}
				back.EndHour(events[len(events)-1].hourEnd, true)
				wall += time.Since(start).Nanoseconds()
			}
			total := int64(b.N) * int64(len(events))
			b.ReportMetric(float64(total)/(float64(wall)/1e9), "events/sec")
			b.ReportMetric(float64(wall)/float64(total), "ns/event")
		})
	}
}

// BenchmarkIngestThroughputEndToEnd extends BenchmarkIngestThroughput
// across the whole pipeline: pre-generated hours flow through detection,
// active probing, annotation, and the feed server, with workers=N at
// GOMAXPROCS N. Reported pkts/sec is end-to-end — what an operator sees
// per GOMAXPROCS.
func BenchmarkIngestThroughputEndToEnd(b *testing.B) {
	cfg := simnet.DefaultConfig(2051)
	cfg.NumInfected = 300
	cfg.NumNonIoT = 50
	cfg.NumMisconfig = 30
	cfg.NumBackscat = 8
	cfg.MaxPacketsPerHostHour = 1200
	const hours = 4
	w := simnet.NewWorld(cfg)
	pregen := make([][]packet.Packet, hours)
	var total int64
	for h := range pregen {
		pregen[h] = w.GenerateHour(w.Start().Add(time.Duration(h) * time.Hour))
		total += int64(len(pregen[h]))
	}

	counts := []int{1, 4}
	if gmp := runtime.GOMAXPROCS(0); gmp != 1 && gmp != 4 {
		counts = append(counts, gmp)
	}
	for _, procs := range counts {
		b.Run(fmt.Sprintf("workers=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			b.ReportAllocs()
			var wall int64
			for i := 0; i < b.N; i++ {
				local := pipeline.NewLocal(pipeline.DefaultLocalConfig(), w, w.Registry(), nil)
				start := time.Now()
				for h := 0; h < hours; h++ {
					local.ProcessHour(pregen[h], w.Start().Add(time.Duration(h)*time.Hour))
				}
				local.Finish(w.Start().Add(hours * time.Hour))
				wall += time.Since(start).Nanoseconds()
			}
			pkts := int64(b.N) * total
			b.ReportMetric(float64(pkts)/(float64(wall)/1e9), "pkts/sec")
			b.ReportMetric(float64(wall)/float64(pkts), "ns/pkt")
		})
	}
}
