// Package ml implements the learning machinery eX-IoT uses to label
// telescope scanners IoT / non-IoT: CART decision trees, a random forest
// (the production model), a linear SVM and Gaussian Naive Bayes (the
// baselines the paper compared in preliminary tests), evaluation metrics
// (ROC-AUC, F1, precision/recall), train/test splitting, randomized
// hyper-parameter search, and JSON model persistence. It replaces the
// sklearn dependency with stdlib-only Go.
package ml

import "math/rand"

// Dataset is a design matrix with binary labels (1 = IoT).
type Dataset struct {
	X [][]float64
	Y []int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// NumFeatures returns the feature dimensionality (0 when empty).
func (d *Dataset) NumFeatures() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Append adds one sample.
func (d *Dataset) Append(x []float64, y int) {
	d.X = append(d.X, x)
	d.Y = append(d.Y, y)
}

// ClassCounts returns (negatives, positives).
func (d *Dataset) ClassCounts() (neg, pos int) {
	for _, y := range d.Y {
		if y == 1 {
			pos++
		} else {
			neg++
		}
	}
	return neg, pos
}

// Split partitions the dataset into train/test with the given train
// fraction after a seeded shuffle. The paper's update-classifier module
// uses a 20 % train / 80 % test split over the 14-day window.
func (d *Dataset) Split(trainFrac float64, seed int64) (train, test Dataset) {
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	cut := int(float64(len(idx)) * trainFrac)
	for i, j := range idx {
		if i < cut {
			train.Append(d.X[j], d.Y[j])
		} else {
			test.Append(d.X[j], d.Y[j])
		}
	}
	return train, test
}

// Classifier scores a sample with the probability of the positive (IoT)
// class.
type Classifier interface {
	PredictProba(x []float64) float64
}

// Predict thresholds a classifier's score at 0.5.
func Predict(c Classifier, x []float64) int {
	if c.PredictProba(x) >= 0.5 {
		return 1
	}
	return 0
}

// Scores applies a classifier to every sample.
func Scores(c Classifier, ds *Dataset) []float64 {
	out := make([]float64, ds.Len())
	for i, x := range ds.X {
		out[i] = c.PredictProba(x)
	}
	return out
}

// Predictions thresholds Scores at 0.5.
func Predictions(c Classifier, ds *Dataset) []int {
	out := make([]int, ds.Len())
	for i, x := range ds.X {
		out[i] = Predict(c, x)
	}
	return out
}
