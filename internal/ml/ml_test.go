package ml

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"
)

// accuracy is (TP+TN)/total.
func accuracy(c Confusion) float64 {
	return float64(c.TP+c.TN) / float64(c.TP+c.FP+c.TN+c.FN)
}

// blobs builds a linearly separable two-Gaussian dataset.
func blobs(n int, sep float64, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	var ds Dataset
	for i := 0; i < n; i++ {
		y := i % 2
		center := -sep / 2
		if y == 1 {
			center = sep / 2
		}
		x := []float64{center + rng.NormFloat64(), center + rng.NormFloat64(), rng.NormFloat64()}
		ds.Append(x, y)
	}
	return ds
}

// xor builds a dataset only non-linear models can fit.
func xor(n int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	var ds Dataset
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		y := 0
		if (a > 0) != (b > 0) {
			y = 1
		}
		ds.Append([]float64{a, b}, y)
	}
	return ds
}

func TestSplitProportions(t *testing.T) {
	ds := blobs(1000, 2, 2)
	train, test := ds.Split(0.2, 7)
	if train.Len() != 200 || test.Len() != 800 {
		t.Errorf("split = %d/%d, want 200/800", train.Len(), test.Len())
	}
	// Deterministic per seed.
	train2, _ := ds.Split(0.2, 7)
	for i := range train.Y {
		if train.Y[i] != train2.Y[i] {
			t.Fatal("split not deterministic")
		}
	}
	// No sample lost.
	if train.Len()+test.Len() != ds.Len() {
		t.Error("samples lost in split")
	}
}

func TestTreeFitsTrainingData(t *testing.T) {
	ds := xor(400, 3)
	tree := trainTree(&ds, treeConfig{}, nil, nil)
	pred := Predictions(tree, &ds)
	c := ConfusionMatrix(pred, ds.Y)
	if acc := accuracy(c); acc < 0.99 {
		t.Errorf("unbounded tree training accuracy = %.3f, want ≈1", acc)
	}
}

func TestTreeDepthBound(t *testing.T) {
	ds := xor(400, 4)
	tree := trainTree(&ds, treeConfig{maxDepth: 3}, nil, nil)
	var depth func(i int32) int
	depth = func(i int32) int {
		n := &tree.Nodes[i]
		if n.Feature < 0 {
			return 0
		}
		return 1 + max(depth(n.Left), depth(n.Right))
	}
	if d := depth(0); d > 3 {
		t.Errorf("depth = %d, exceeds bound 3", d)
	}
}

func TestTreePureLeafShortCircuit(t *testing.T) {
	var ds Dataset
	for i := 0; i < 50; i++ {
		ds.Append([]float64{float64(i)}, 1)
	}
	tree := trainTree(&ds, treeConfig{}, nil, nil)
	if len(tree.Nodes) != 1 || tree.Nodes[0].Feature != -1 {
		t.Errorf("single-class data should produce a lone leaf, got %d nodes", len(tree.Nodes))
	}
	if p := tree.PredictProba([]float64{3}); p != 1 {
		t.Errorf("prob = %v, want 1", p)
	}
}

func TestForestGeneralizes(t *testing.T) {
	train := xor(600, 5)
	test := xor(300, 6)
	f := TrainForest(&train, ForestConfig{NumTrees: 40, Seed: 1})
	pred := Predictions(f, &test)
	c := ConfusionMatrix(pred, test.Y)
	if acc := accuracy(c); acc < 0.9 {
		t.Errorf("forest XOR test accuracy = %.3f, want ≥0.9", acc)
	}
	auc := ROCAUC(Scores(f, &test), test.Y)
	if auc < 0.95 {
		t.Errorf("forest XOR AUC = %.3f, want ≥0.95", auc)
	}
}

func TestForestDeterministicPerSeed(t *testing.T) {
	ds := blobs(300, 2, 8)
	f1 := TrainForest(&ds, ForestConfig{NumTrees: 10, Seed: 42})
	f2 := TrainForest(&ds, ForestConfig{NumTrees: 10, Seed: 42})
	for i := 0; i < 50; i++ {
		x := []float64{float64(i)/10 - 2, float64(i)/7 - 2, 0}
		if f1.PredictProba(x) != f2.PredictProba(x) {
			t.Fatal("forest training not deterministic per seed")
		}
	}
}

func TestSVMOnLinearlySeparable(t *testing.T) {
	train := blobs(600, 4, 9)
	test := blobs(300, 4, 10)
	svm := TrainSVM(&train, 1)
	c := ConfusionMatrix(Predictions(svm, &test), test.Y)
	if acc := accuracy(c); acc < 0.9 {
		t.Errorf("SVM accuracy = %.3f on separable blobs, want ≥0.9", acc)
	}
}

func TestSVMFailsOnXOR(t *testing.T) {
	// A linear model cannot fit XOR — this is why the paper's random
	// forest beats the SVM baseline on heterogeneous IoT traffic.
	train := xor(600, 11)
	test := xor(300, 12)
	svm := TrainSVM(&train, 1)
	auc := ROCAUC(Scores(svm, &test), test.Y)
	if auc > 0.7 {
		t.Errorf("linear SVM XOR AUC = %.3f; suspiciously high for a linear model", auc)
	}
}

func TestGNBOnBlobs(t *testing.T) {
	train := blobs(600, 4, 13)
	test := blobs(300, 4, 14)
	g := TrainGNB(&train)
	c := ConfusionMatrix(Predictions(g, &test), test.Y)
	if acc := accuracy(c); acc < 0.9 {
		t.Errorf("GNB accuracy = %.3f on separable blobs, want ≥0.9", acc)
	}
}

func TestGNBProbabilitiesInRange(t *testing.T) {
	train := blobs(200, 2, 15)
	g := TrainGNB(&train)
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) ||
			math.IsInf(a, 0) || math.IsInf(b, 0) || math.IsInf(c, 0) {
			return true
		}
		p := g.PredictProba([]float64{a, b, c})
		return p >= 0 && p <= 1 && !math.IsNaN(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestROCAUCProperties(t *testing.T) {
	// Perfect ranking → 1.0.
	if auc := ROCAUC([]float64{0.1, 0.2, 0.8, 0.9}, []int{0, 0, 1, 1}); auc != 1.0 {
		t.Errorf("perfect AUC = %v", auc)
	}
	// Inverted ranking → 0.0.
	if auc := ROCAUC([]float64{0.9, 0.8, 0.2, 0.1}, []int{0, 0, 1, 1}); auc != 0.0 {
		t.Errorf("inverted AUC = %v", auc)
	}
	// All-tied scores → 0.5.
	if auc := ROCAUC([]float64{0.5, 0.5, 0.5, 0.5}, []int{0, 0, 1, 1}); auc != 0.5 {
		t.Errorf("tied AUC = %v", auc)
	}
	// Single class → 0.5 by convention.
	if auc := ROCAUC([]float64{0.1, 0.9}, []int{1, 1}); auc != 0.5 {
		t.Errorf("single-class AUC = %v", auc)
	}
}

func TestROCAUCInvariantToMonotoneTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	scores := make([]float64, 200)
	labels := make([]int, 200)
	for i := range scores {
		scores[i] = rng.Float64()
		if rng.Float64() < scores[i] {
			labels[i] = 1
		}
	}
	a := ROCAUC(scores, labels)
	squashed := make([]float64, len(scores))
	for i, s := range scores {
		squashed[i] = math.Tanh(3 * s) // strictly increasing
	}
	b := ROCAUC(squashed, labels)
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("AUC not rank-invariant: %v vs %v", a, b)
	}
}

func TestConfusionMetrics(t *testing.T) {
	pred := []int{1, 1, 0, 0, 1, 0}
	lab := []int{1, 0, 0, 1, 1, 0}
	c := ConfusionMatrix(pred, lab)
	if c.TP != 2 || c.FP != 1 || c.TN != 2 || c.FN != 1 {
		t.Fatalf("confusion = %+v", c)
	}
	if p := c.Precision(); math.Abs(p-2.0/3) > 1e-12 {
		t.Errorf("precision = %v", p)
	}
	if r := c.Recall(); math.Abs(r-2.0/3) > 1e-12 {
		t.Errorf("recall = %v", r)
	}
	if f := c.F1(); math.Abs(f-2.0/3) > 1e-12 {
		t.Errorf("f1 = %v", f)
	}
	var zero Confusion
	if zero.Precision() != 0 || zero.Recall() != 0 || zero.F1() != 0 {
		t.Error("zero confusion should yield zero metrics")
	}
}

func TestSearchForestPicksReasonableModel(t *testing.T) {
	ds := xor(500, 17)
	train, test := ds.Split(0.5, 1)
	best, results := SearchForest(&train, &test, 6, 99)
	if best == nil || len(results) != 6 {
		t.Fatalf("search returned %d results", len(results))
	}
	auc := ROCAUC(Scores(best, &test), test.Y)
	for _, r := range results {
		if r.AUC > auc+1e-9 {
			t.Errorf("search did not return the best model: %.4f available, %.4f chosen", r.AUC, auc)
		}
	}
}

func TestModelPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ds := blobs(200, 3, 18)
	f := TrainForest(&ds, ForestConfig{NumTrees: 5, Seed: 3})
	m := &SavedModel{
		TrainedAt:    timeFixed(),
		WindowDays:   14,
		TrainSamples: 40,
		TestSamples:  160,
		AUC:          0.99,
		Forest:       f,
	}
	path, err := SaveModel(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.AUC != m.AUC || back.WindowDays != 14 {
		t.Errorf("metadata lost: %+v", back)
	}
	for i := 0; i < 20; i++ {
		x := []float64{float64(i) - 10, float64(i)/2 - 5, 0}
		if got, want := back.Forest.PredictProba(x), f.PredictProba(x); got != want {
			t.Fatalf("loaded model differs at %v: %v vs %v", x, got, want)
		}
	}

	latest, err := LatestModel(dir)
	if err != nil {
		t.Fatal(err)
	}
	if latest == nil || !latest.TrainedAt.Equal(m.TrainedAt) {
		t.Error("LatestModel did not find the archived model")
	}
}

func TestLatestModelEmptyDir(t *testing.T) {
	m, err := LatestModel(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if m != nil {
		t.Error("empty archive should return nil")
	}
}

func TestLoadModelErrors(t *testing.T) {
	if _, err := LoadModel("/nonexistent/model.json"); err == nil {
		t.Error("want error for missing file")
	}
}

func TestSaveModelCrashSafety(t *testing.T) {
	// A crash mid-archive leaves either a .tmp file (never picked up) or
	// a truncated .json (a LoadModel error, but never a silently wrong
	// model). LatestModel must keep returning the newest intact archive.
	dir := t.TempDir()
	ds := blobs(120, 3, 18)
	f := TrainForest(&ds, ForestConfig{NumTrees: 3, Seed: 3})
	good := &SavedModel{TrainedAt: timeFixed(), WindowDays: 14, Forest: f}
	if _, err := SaveModel(dir, good); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash before the rename: a half-written temp file.
	data, _ := json.Marshal(good)
	partialTmp := filepath.Join(dir, modelFileName(timeFixed().Add(24*time.Hour))+".12345.tmp")
	if err := os.WriteFile(partialTmp, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	latest, err := LatestModel(dir)
	if err != nil {
		t.Fatalf("leftover temp file broke the archive: %v", err)
	}
	if latest == nil || !latest.TrainedAt.Equal(good.TrainedAt) {
		t.Fatal("LatestModel did not return the intact archive")
	}

	// A torn canonical file (e.g. copied off a dying disk) must be a
	// loud decode error, not a silent partial model.
	torn := filepath.Join(dir, modelFileName(timeFixed().Add(-24*time.Hour)))
	if err := os.WriteFile(torn, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(torn); err == nil {
		t.Error("want decode error for truncated model file")
	}

	// SaveModel leaves no temp droppings behind on success.
	if _, err := SaveModel(dir, &SavedModel{TrainedAt: timeFixed().Add(48 * time.Hour), Forest: f}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	tmps := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			tmps++
		}
	}
	if tmps != 1 { // only the crash-simulated one we planted
		t.Errorf("SaveModel left temp files behind: %d .tmp entries, want 1", tmps)
	}
}

func timeFixed() time.Time {
	return time.Date(2020, 12, 9, 0, 0, 0, 0, time.UTC)
}

func TestFeatureImportances(t *testing.T) {
	// Only dims 0 and 1 carry signal (XOR); they must dominate the
	// importances of a trained forest.
	rng := rand.New(rand.NewSource(20))
	var ds Dataset
	for i := 0; i < 500; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		x := []float64{a, b, rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		y := 0
		if (a > 0) != (b > 0) {
			y = 1
		}
		ds.Append(x, y)
	}
	f := TrainForest(&ds, ForestConfig{NumTrees: 30, Seed: 2})
	imp := f.FeatureImportances(5)
	var sum float64
	for _, v := range imp {
		if v < 0 {
			t.Fatalf("negative importance: %v", imp)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importances sum to %v, want 1", sum)
	}
	if imp[0]+imp[1] < 0.6 {
		t.Errorf("signal dims hold %.2f of importance, want dominance: %v", imp[0]+imp[1], imp)
	}
	// Empty forest degrades gracefully.
	empty := &Forest{}
	if got := empty.FeatureImportances(3); len(got) != 3 {
		t.Errorf("empty forest importances = %v", got)
	}
}

// TestForestValidate holds a decoded forest to the shape training
// produces: one hostile forest per rule is refused (each would panic or
// loop in Flatten / PredictProba), and trained forests pass.
func TestForestValidate(t *testing.T) {
	ds := xor(200, 3)
	trained := TrainForest(&ds, ForestConfig{NumTrees: 8, Seed: 4})
	if err := trained.Validate(ds.NumFeatures()); err != nil {
		t.Fatalf("trained forest refused: %v", err)
	}
	if err := (&Forest{}).Validate(0); err != nil {
		t.Errorf("empty forest refused: %v", err)
	}

	leaf := func(p float64) treeNode { return treeNode{Feature: -1, Prob: p} }
	split := func(f int, l, r int32) treeNode { return treeNode{Feature: f, Threshold: 0.5, Left: l, Right: r} }
	hostile := map[string][]*Tree{
		"nil tree":        {nil},
		"empty tree":      {{}},
		"child past end":  {{Nodes: []treeNode{split(0, 1, 2), leaf(0)}}},
		"negative child":  {{Nodes: []treeNode{split(0, -1, 1), leaf(0)}}},
		"self loop":       {{Nodes: []treeNode{split(0, 0, 1), leaf(0)}}},
		"backward child":  {{Nodes: []treeNode{split(0, 1, 2), split(0, 0, 2), leaf(0)}}},
		"same child":      {{Nodes: []treeNode{split(0, 1, 1), leaf(0)}}},
		"shared child":    {{Nodes: []treeNode{split(0, 1, 2), split(0, 2, 3), leaf(0), leaf(1)}}},
		"orphan node":     {{Nodes: []treeNode{split(0, 1, 2), leaf(0), leaf(1), leaf(1)}}},
		"feature too big": {{Nodes: []treeNode{split(2, 1, 2), leaf(0), leaf(1)}}},
		"prob above one":  {{Nodes: []treeNode{leaf(1.5)}}},
		"prob NaN":        {{Nodes: []treeNode{leaf(math.NaN())}}},
		"threshold inf": {{Nodes: []treeNode{
			{Feature: 0, Threshold: math.Inf(1), Left: 1, Right: 2}, leaf(0), leaf(1)}}},
	}
	for name, trees := range hostile {
		if err := (&Forest{Trees: trees}).Validate(2); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The same shapes with the defect removed pass, so each case above
	// fails for its own rule.
	ok := &Forest{Trees: []*Tree{
		{Nodes: []treeNode{leaf(1)}},
		{Nodes: []treeNode{split(1, 1, 2), split(0, 3, 4), leaf(0), leaf(0.25), leaf(1)}},
	}}
	if err := ok.Validate(2); err != nil {
		t.Errorf("well-formed forest refused: %v", err)
	}
	ok.Flatten().PredictProba([]float64{0, 1})
}
