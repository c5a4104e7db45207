// Package trainer implements eX-IoT's Update Classifier module. Flows
// whose banners yielded ground-truth labels accumulate in a sliding
// 14-day window; every 24 hours the module splits the window into 20 %
// training / 80 % testing, fits the normalizer on the training portion,
// searches random-forest hyper-parameters for the model maximizing
// ROC-AUC, archives the timestamped model, and hands the winner to the
// annotate module. It also reproduces the paper's preliminary model
// comparison (random forest vs. linear SVM vs. Gaussian Naive Bayes).
package trainer

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"exiot/internal/features"
	"exiot/internal/ml"
	"exiot/internal/telemetry"
)

// Telemetry handles for the update-classifier stage (see
// docs/OPERATIONS.md).
var (
	metRetrains = telemetry.Default().CounterVec("exiot_retrain_total",
		"Daily retrain cycles attempted, by outcome (ok|starved).", "result")
	metWindowSize = telemetry.Default().Gauge("exiot_trainer_window_size",
		"Labeled examples currently in the sliding training window.")
	metModelAUC = telemetry.Default().Gauge("exiot_model_auc",
		"ROC-AUC of the most recently trained model on its test split.")
	// layerTrainer times Retrain: one call per cycle, items are examples.
	layerTrainer = telemetry.Default().Layer("trainer")
)

// The paper's training operating point.
const (
	// windowDays is the training window (paper: 14 days).
	windowDays = 14
	// trainFrac is the training split (paper: 20 % train / 80 % test).
	trainFrac = 0.2
	// minExamples gates training until the window holds at least this
	// many labeled flows (the paper bootstraps for two weeks before
	// trusting the model).
	minExamples = 20
)

// Config parameterizes the update-classifier module.
type Config struct {
	// SearchIterations bounds the hyper-parameter search (paper: 1000
	// iterations; scale down for laptop runs).
	SearchIterations int
	// Seed drives splits and search.
	Seed int64
	// ModelDir, when set, archives every trained model with its
	// timestamp.
	ModelDir string
}

// Default returns the paper's operating point with a laptop-scale search
// budget.
func Default() Config {
	return Config{
		SearchIterations: 12,
		Seed:             1,
	}
}

// Example is one labeled flow: the raw (un-normalized) feature vector
// plus the banner-derived label.
type Example struct {
	Time  time.Time
	IP    string
	Raw   []float64
	Label int // 1 = IoT
}

// TrainedModel bundles everything the annotate module needs, plus
// evaluation metadata.
type TrainedModel struct {
	Forest     *ml.Forest
	Normalizer *features.Normalizer
	TrainedAt  time.Time
	AUC        float64
	F1         float64
	TrainSize  int
	TestSize   int
}

// ErrNotEnoughData is returned by Retrain when the window cannot support
// a two-class split.
var ErrNotEnoughData = errors.New("trainer: not enough labeled data in window")

// Trainer accumulates labeled examples and retrains on demand.
type Trainer struct {
	cfg Config

	mu       sync.Mutex
	examples []Example
	retrains int
}

// New creates a trainer.
func New(cfg Config) *Trainer {
	if cfg.SearchIterations <= 0 {
		cfg.SearchIterations = 12
	}
	return &Trainer{cfg: cfg}
}

// Add appends one labeled example to the window.
func (t *Trainer) Add(ex Example) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.examples = append(t.examples, ex)
}

// Snapshot returns a copy of the retained examples (evaluation
// harnesses).
func (t *Trainer) Snapshot() []Example {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Example, len(t.examples))
	copy(out, t.examples)
	return out
}

// WindowSize returns the number of retained examples.
func (t *Trainer) WindowSize() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.examples)
}

// evict drops examples older than the window. Caller holds the lock.
func (t *Trainer) evict(now time.Time) {
	cutoff := now.Add(-windowDays * 24 * time.Hour)
	keep := t.examples[:0]
	for _, ex := range t.examples {
		if !ex.Time.Before(cutoff) {
			keep = append(keep, ex)
		}
	}
	t.examples = keep
}

// snapshotDataset evicts old examples and builds the dataset. Caller
// holds the lock.
func (t *Trainer) snapshotDataset(now time.Time) ml.Dataset {
	t.evict(now)
	var ds ml.Dataset
	for _, ex := range t.examples {
		ds.Append(ex.Raw, ex.Label)
	}
	return ds
}

// Retrain runs one daily training cycle as of now.
func (t *Trainer) Retrain(now time.Time) (*TrainedModel, error) {
	start := time.Now()
	t.mu.Lock()
	ds := t.snapshotDataset(now)
	t.retrains++
	seed := t.cfg.Seed + int64(t.retrains)
	metWindowSize.Set(float64(len(t.examples)))
	t.mu.Unlock()
	defer layerTrainer.Done(start, ds.Len())

	neg, pos := ds.ClassCounts()
	if ds.Len() < minExamples || neg == 0 || pos == 0 {
		metRetrains.With("starved").Inc()
		return nil, fmt.Errorf("%w: %d samples (%d IoT / %d non-IoT)", ErrNotEnoughData, ds.Len(), pos, neg)
	}

	// The paper's 20/80 split assumes deployment-scale volume (100k+
	// labeled flows per day). At simulation scale we floor the training
	// portion at 30 samples, converging to the paper's split as the
	// window grows.
	frac := trainFrac
	if float64(ds.Len())*frac < 30 {
		frac = 30 / float64(ds.Len())
		if frac > 0.5 {
			frac = 0.5
		}
	}
	rawTrain, rawTest := ds.Split(frac, seed)
	norm, err := features.FitNormalizer(rawTrain.X)
	if err != nil {
		return nil, fmt.Errorf("trainer: %w", err)
	}
	train := ml.Dataset{X: norm.ApplyAll(rawTrain.X), Y: rawTrain.Y}
	test := ml.Dataset{X: norm.ApplyAll(rawTest.X), Y: rawTest.Y}

	forest, results := ml.SearchForest(&train, &test, t.cfg.SearchIterations, seed)
	if forest == nil {
		return nil, errors.New("trainer: search produced no model")
	}
	best := results[0]
	for _, r := range results {
		if r.AUC > best.AUC {
			best = r
		}
	}
	m := &TrainedModel{
		Forest:     forest,
		Normalizer: norm,
		TrainedAt:  now,
		AUC:        best.AUC,
		F1:         best.F1,
		TrainSize:  train.Len(),
		TestSize:   test.Len(),
	}
	if t.cfg.ModelDir != "" {
		saved, err := m.Saved()
		if err != nil {
			return nil, err
		}
		if _, err := ml.SaveModel(t.cfg.ModelDir, saved); err != nil {
			return nil, fmt.Errorf("trainer: archive: %w", err)
		}
	}
	metRetrains.With("ok").Inc()
	metModelAUC.Set(m.AUC)
	return m, nil
}

// LoadLatest reconstructs the most recently archived model from dir so a
// restarted feed server resumes classification without retraining — the
// paper archives every daily model "to make the results easily
// reproducible".
func LoadLatest(dir string) (*TrainedModel, error) {
	saved, err := ml.LatestModel(dir)
	if err != nil {
		return nil, err
	}
	return FromSaved(saved)
}

// ModelComparison is one row of the paper's preliminary RF/SVM/GNB
// comparison.
type ModelComparison struct {
	Name string  `json:"name"`
	AUC  float64 `json:"auc"`
	F1   float64 `json:"f1"`
}

// CompareModels evaluates the three candidate model families on the
// current window and returns their ROC-AUC and F1 — the experiment that
// motivated choosing the random forest.
func (t *Trainer) CompareModels(now time.Time) ([]ModelComparison, error) {
	t.mu.Lock()
	ds := t.snapshotDataset(now)
	seed := t.cfg.Seed
	t.mu.Unlock()

	neg, pos := ds.ClassCounts()
	if ds.Len() < 20 || neg == 0 || pos == 0 {
		return nil, fmt.Errorf("%w: %d samples", ErrNotEnoughData, ds.Len())
	}
	rawTrain, rawTest := ds.Split(0.5, seed)
	norm, err := features.FitNormalizer(rawTrain.X)
	if err != nil {
		return nil, fmt.Errorf("trainer: %w", err)
	}
	train := ml.Dataset{X: norm.ApplyAll(rawTrain.X), Y: rawTrain.Y}
	test := ml.Dataset{X: norm.ApplyAll(rawTest.X), Y: rawTest.Y}

	eval := func(name string, c ml.Classifier) ModelComparison {
		auc := ml.ROCAUC(ml.Scores(c, &test), test.Y)
		_, _, f1 := ml.PrecisionRecallF1(ml.Predictions(c, &test), test.Y)
		return ModelComparison{Name: name, AUC: auc, F1: f1}
	}
	rf := ml.TrainForest(&train, ml.ForestConfig{NumTrees: 50, Seed: seed})
	svm := ml.TrainSVM(&train, ml.SVMConfig{Seed: seed})
	gnb := ml.TrainGNB(&train)
	return []ModelComparison{
		eval("RandomForest", rf),
		eval("LinearSVM", svm),
		eval("GaussianNB", gnb),
	}, nil
}
