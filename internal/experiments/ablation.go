package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"exiot/internal/features"
	"exiot/internal/ml"
	"exiot/internal/packet"
	"exiot/internal/simnet"
	"exiot/internal/trw"
)

// This file holds the ablation studies DESIGN.md calls out: the design
// choices the paper fixes (TRW threshold, 200-packet samples, the full
// 120-dim feature set, forest size, 14-day window) swept against their
// alternatives.

// TRWAblationRow is one operating point of the detector.
type TRWAblationRow struct {
	Threshold       int
	MinDuration     time.Duration
	ScannersFound   int64
	MisconfigCaught int
	BackscatCaught  int
}

// TRWAblationResult sweeps detector thresholds.
type TRWAblationResult struct {
	Rows []TRWAblationRow
}

// AblationTRW sweeps the TRW packet threshold and the duration floor,
// counting how many true scanners are found and how many
// misconfiguration/backscatter sources leak through — the trade the
// paper's 100-packet / 1-minute operating point settles.
func AblationTRW(scale Scale) TRWAblationResult {
	w := simnet.NewWorld(scale.worldConfig())
	hours := 6
	if scale.Days*24 < hours {
		hours = scale.Days * 24
	}
	var allPkts [][]packet.Packet
	for h := 0; h < hours; h++ {
		allPkts = append(allPkts, w.GenerateHour(w.Start().Add(time.Duration(h)*time.Hour)))
	}

	var res TRWAblationResult
	for _, row := range []struct {
		threshold int
		minDur    time.Duration
	}{
		{25, -1}, {100, -1}, {25, time.Minute}, {50, time.Minute},
		{100, time.Minute}, {200, time.Minute}, {400, time.Minute},
	} {
		cfg := trw.Default()
		cfg.DetectionThreshold = row.threshold
		cfg.MinDuration = row.minDur // -1 = floor disabled
		detected := map[packet.IP]bool{}
		det := trw.NewDetector(cfg, func(e trw.Event) {
			if e.Kind == trw.EventScannerDetected {
				detected[e.IP] = true
			}
		})
		for h, pkts := range allPkts {
			for i := range pkts {
				det.Process(&pkts[i])
			}
			det.EndHour(w.Start().Add(time.Duration(h+1) * time.Hour))
		}
		r := TRWAblationRow{Threshold: row.threshold, MinDuration: row.minDur}
		r.ScannersFound = det.Stats().ScannersFound
		for ip := range detected {
			h, ok := w.HostByIP(ip)
			if !ok {
				continue
			}
			switch h.Kind {
			case simnet.KindMisconfigured:
				r.MisconfigCaught++
			case simnet.KindBackscatter:
				r.BackscatCaught++
			}
		}
		res.Rows = append(res.Rows, r)
	}
	return res
}

// String renders the TRW ablation.
func (r TRWAblationResult) String() string {
	var sb strings.Builder
	sb.WriteString("Ablation — TRW threshold and duration floor\n")
	fmt.Fprintf(&sb, "  %9s %8s %10s %10s %10s\n", "threshold", "minDur", "scanners", "misconfig", "backscat")
	for _, row := range r.Rows {
		floor := row.MinDuration.String()
		if row.MinDuration < 0 {
			floor = "none"
		}
		fmt.Fprintf(&sb, "  %9d %8s %10d %10d %10d\n",
			row.Threshold, floor, row.ScannersFound, row.MisconfigCaught, row.BackscatCaught)
	}
	sb.WriteString("  (paper operating point: threshold 100, 1-minute floor)\n")
	return sb.String()
}

// flowDataset extracts per-source raw flow vectors with ground-truth
// labels from a few hours of generated traffic, truncating each source's
// sample to sampleSize packets.
func flowDataset(w *simnet.World, hours, sampleSize int) ml.Dataset {
	bySrc := map[packet.IP][]packet.Packet{}
	for h := 0; h < hours; h++ {
		for _, p := range w.GenerateHour(w.Start().Add(time.Duration(h) * time.Hour)) {
			if len(bySrc[p.SrcIP]) < sampleSize {
				bySrc[p.SrcIP] = append(bySrc[p.SrcIP], p)
			}
		}
	}
	// Deterministic iteration order for reproducible splits.
	srcs := make([]packet.IP, 0, len(bySrc))
	for src := range bySrc {
		srcs = append(srcs, src)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })

	var ds ml.Dataset
	var scratch features.Scratch
	for _, src := range srcs {
		sample := bySrc[src]
		if len(sample) < sampleSize/2 || len(sample) < 10 {
			continue
		}
		host, ok := w.HostByIP(src)
		if !ok {
			continue
		}
		var label int
		switch host.Kind {
		case simnet.KindInfectedIoT:
			label = 1
		case simnet.KindNonIoTScanner, simnet.KindResearchScanner:
			label = 0
		default:
			continue
		}
		raw, err := scratch.RawVectorInto(nil, sample)
		if err != nil {
			continue
		}
		ds.Append(raw, label)
	}
	return ds
}

// evalAUC trains a forest on a (normalized) split and returns test AUC.
func evalAUC(ds ml.Dataset, seed int64, forestCfg ml.ForestConfig) float64 {
	rawTrain, rawTest := ds.Split(0.5, seed)
	norm, err := features.FitNormalizer(rawTrain.X)
	if err != nil {
		return 0
	}
	train := ml.Dataset{X: norm.ApplyAll(rawTrain.X), Y: rawTrain.Y}
	test := ml.Dataset{X: norm.ApplyAll(rawTest.X), Y: rawTest.Y}
	forest := ml.TrainForest(&train, forestCfg)
	return ml.ROCAUC(ml.Scores(forest, &test), test.Y)
}

// SampleSizeAblationResult sweeps the post-detection sample size.
type SampleSizeAblationResult struct {
	Rows []struct {
		SampleSize int
		Flows      int
		AUC        float64
	}
}

// AblationSampleSize sweeps the 200-packet sample-size choice: larger
// samples give more stable quartile features but delay labeling.
func AblationSampleSize(scale Scale) SampleSizeAblationResult {
	w := simnet.NewWorld(scale.worldConfig())
	var res SampleSizeAblationResult
	for _, size := range []int{25, 50, 100, 200, 400} {
		ds := flowDataset(w, 4, size)
		auc := evalAUC(ds, scale.Seed, ml.ForestConfig{NumTrees: 40, Seed: scale.Seed})
		res.Rows = append(res.Rows, struct {
			SampleSize int
			Flows      int
			AUC        float64
		}{size, ds.Len(), auc})
	}
	return res
}

// String renders the sample-size ablation.
func (r SampleSizeAblationResult) String() string {
	var sb strings.Builder
	sb.WriteString("Ablation — classifier sample size (paper: 200 packets)\n")
	fmt.Fprintf(&sb, "  %10s %8s %10s\n", "sample", "flows", "ROC-AUC")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %10d %8d %10.4f\n", row.SampleSize, row.Flows, row.AUC)
	}
	return sb.String()
}

// FeatureSetAblationResult sweeps feature subsets.
type FeatureSetAblationResult struct {
	Rows []struct {
		Name string
		Dims int
		AUC  float64
	}
}

// featureMask returns the flow-vector dimensions whose field index
// satisfies keep.
func featureMask(keep func(field int) bool) []int {
	var dims []int
	for d := 0; d < features.Dim; d++ {
		if keep(d / features.NumStats) {
			dims = append(dims, d)
		}
	}
	return dims
}

func projectDataset(ds ml.Dataset, dims []int) ml.Dataset {
	var out ml.Dataset
	for i, x := range ds.X {
		proj := make([]float64, len(dims))
		for j, d := range dims {
			proj[j] = x[d]
		}
		out.Append(proj, ds.Y[i])
	}
	return out
}

// AblationFeatureSet compares the full 120-dim feature space with
// restricted views: no TCP options, no inter-arrival timing, ports-only,
// and stack-fingerprint-only.
func AblationFeatureSet(scale Scale) FeatureSetAblationResult {
	w := simnet.NewWorld(scale.worldConfig())
	full := flowDataset(w, 4, 200)

	optionFields := map[int]bool{
		features.FieldOptWScale: true, features.FieldOptMSS: true,
		features.FieldOptTimestamp: true, features.FieldOptNOP: true,
		features.FieldOptSACKOK: true, features.FieldOptSACK: true,
	}
	stackFields := map[int]bool{
		features.FieldTTL: true, features.FieldWindow: true,
		features.FieldTotalLength: true, features.FieldTCPOffset: true,
	}

	masks := []struct {
		name string
		keep func(int) bool
	}{
		{"full (120)", func(int) bool { return true }},
		{"no-options", func(f int) bool { return !optionFields[f] }},
		{"no-interarrival", func(f int) bool { return f != features.FieldInterArrival }},
		{"ports-only", func(f int) bool { return f == features.FieldDstPort }},
		{"stack-only", func(f int) bool { return stackFields[f] }},
	}
	var res FeatureSetAblationResult
	for _, m := range masks {
		dims := featureMask(m.keep)
		ds := projectDataset(full, dims)
		auc := evalAUC(ds, scale.Seed, ml.ForestConfig{NumTrees: 40, Seed: scale.Seed})
		res.Rows = append(res.Rows, struct {
			Name string
			Dims int
			AUC  float64
		}{m.name, len(dims), auc})
	}
	return res
}

// String renders the feature-set ablation.
func (r FeatureSetAblationResult) String() string {
	var sb strings.Builder
	sb.WriteString("Ablation — feature subsets (paper uses the full Table II set)\n")
	fmt.Fprintf(&sb, "  %-18s %6s %10s\n", "feature set", "dims", "ROC-AUC")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-18s %6d %10.4f\n", row.Name, row.Dims, row.AUC)
	}
	return sb.String()
}

// ForestSizeAblationResult sweeps ensemble size.
type ForestSizeAblationResult struct {
	Rows []struct {
		Trees     int
		AUC       float64
		TrainTime time.Duration
	}
}

// AblationForestSize sweeps the random forest's ensemble size.
func AblationForestSize(scale Scale) ForestSizeAblationResult {
	w := simnet.NewWorld(scale.worldConfig())
	ds := flowDataset(w, 4, 200)
	var res ForestSizeAblationResult
	for _, trees := range []int{1, 5, 10, 25, 50, 100} {
		start := time.Now()
		auc := evalAUC(ds, scale.Seed, ml.ForestConfig{NumTrees: trees, Seed: scale.Seed})
		res.Rows = append(res.Rows, struct {
			Trees     int
			AUC       float64
			TrainTime time.Duration
		}{trees, auc, time.Since(start)})
	}
	return res
}

// String renders the forest-size ablation.
func (r ForestSizeAblationResult) String() string {
	var sb strings.Builder
	sb.WriteString("Ablation — forest size\n")
	fmt.Fprintf(&sb, "  %6s %10s %12s\n", "trees", "ROC-AUC", "train time")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %6d %10.4f %12v\n", row.Trees, row.AUC, row.TrainTime.Round(time.Millisecond))
	}
	return sb.String()
}

// WindowAblationResult sweeps the training window.
type WindowAblationResult struct {
	Rows []struct {
		WindowHours int
		Train       int
		AUC         float64
	}
}

// AblationTrainingWindow sweeps how much labeled history the daily
// retrain consumes, evaluating on the run's final labeled flows.
func AblationTrainingWindow(e *Env) WindowAblationResult {
	examples := e.Sys.Feed().Trainer().Snapshot()
	sort.SliceStable(examples, func(i, j int) bool {
		return examples[i].Time.Before(examples[j].Time)
	})
	var res WindowAblationResult
	if len(examples) < 40 {
		return res
	}
	cut := len(examples) * 8 / 10
	testEx := examples[cut:]
	testStart := testEx[0].Time

	var rawTest ml.Dataset
	for _, ex := range testEx {
		rawTest.Append(ex.Raw, ex.Label)
	}
	for _, windowHours := range []int{6, 12, 24, 48, 72} {
		cutoff := testStart.Add(-time.Duration(windowHours) * time.Hour)
		var rawTrain ml.Dataset
		for _, ex := range examples[:cut] {
			if !ex.Time.Before(cutoff) {
				rawTrain.Append(ex.Raw, ex.Label)
			}
		}
		neg, pos := rawTrain.ClassCounts()
		if rawTrain.Len() < 10 || neg == 0 || pos == 0 {
			continue
		}
		norm, err := features.FitNormalizer(rawTrain.X)
		if err != nil {
			continue
		}
		train := ml.Dataset{X: norm.ApplyAll(rawTrain.X), Y: rawTrain.Y}
		test := ml.Dataset{X: norm.ApplyAll(rawTest.X), Y: rawTest.Y}
		forest := ml.TrainForest(&train, ml.ForestConfig{NumTrees: 40, Seed: e.Scale.Seed})
		res.Rows = append(res.Rows, struct {
			WindowHours int
			Train       int
			AUC         float64
		}{windowHours, train.Len(), ml.ROCAUC(ml.Scores(forest, &test), test.Y)})
	}
	return res
}

// String renders the training-window ablation.
func (r WindowAblationResult) String() string {
	var sb strings.Builder
	sb.WriteString("Ablation — training window (paper: 14 days)\n")
	if len(r.Rows) == 0 {
		sb.WriteString("  insufficient labeled data for the sweep\n")
		return sb.String()
	}
	fmt.Fprintf(&sb, "  %8s %8s %10s\n", "window", "train", "ROC-AUC")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %7dh %8d %10.4f\n", row.WindowHours, row.Train, row.AUC)
	}
	return sb.String()
}
