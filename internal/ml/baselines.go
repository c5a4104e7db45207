package ml

import (
	"math"
	"math/rand"
)

// The linear SVM baseline's training schedule (hinge loss, SGD with L2
// regularization — Pegasos-style).
const (
	svmEpochs = 20
	svmLambda = 1e-4
)

// SVM is a trained linear support-vector machine.
type SVM struct {
	W []float64 `json:"w"`
	B float64   `json:"b"`
}

var _ Classifier = (*SVM)(nil)

// PredictProba maps the signed margin through a sigmoid so the SVM can be
// scored with the same ROC machinery as the probabilistic models.
func (s *SVM) PredictProba(x []float64) float64 {
	m := s.B
	for i, w := range s.W {
		m += w * x[i]
	}
	return 1 / (1 + math.Exp(-m))
}

// TrainSVM fits the linear SVM with Pegasos SGD, shuffling with seed.
func TrainSVM(ds *Dataset, seed int64) *SVM {
	nf := ds.NumFeatures()
	s := &SVM{W: make([]float64, nf)}
	rng := rand.New(rand.NewSource(seed))
	t := 1
	for epoch := 0; epoch < svmEpochs; epoch++ {
		perm := rng.Perm(ds.Len())
		for _, i := range perm {
			eta := 1 / (svmLambda * float64(t))
			t++
			y := float64(2*ds.Y[i] - 1) // {-1,+1}
			m := s.B
			for j, w := range s.W {
				m += w * ds.X[i][j]
			}
			// L2 shrinkage.
			scale := 1 - eta*svmLambda
			if scale < 0 {
				scale = 0
			}
			for j := range s.W {
				s.W[j] *= scale
			}
			if y*m < 1 { // inside margin: hinge subgradient step
				for j := range s.W {
					s.W[j] += eta * y * ds.X[i][j]
				}
				s.B += eta * y
			}
		}
	}
	return s
}

// GNB is a trained Gaussian Naive Bayes classifier.
type GNB struct {
	Mean  [2][]float64 `json:"mean"`
	Var   [2][]float64 `json:"var"`
	Prior [2]float64   `json:"prior"`
}

var _ Classifier = (*GNB)(nil)

// TrainGNB fits per-class feature Gaussians with variance smoothing.
func TrainGNB(ds *Dataset) *GNB {
	nf := ds.NumFeatures()
	g := &GNB{}
	counts := [2]int{}
	for c := 0; c < 2; c++ {
		g.Mean[c] = make([]float64, nf)
		g.Var[c] = make([]float64, nf)
	}
	for i, x := range ds.X {
		c := ds.Y[i]
		counts[c]++
		for j, v := range x {
			g.Mean[c][j] += v
		}
	}
	for c := 0; c < 2; c++ {
		if counts[c] == 0 {
			continue
		}
		for j := range g.Mean[c] {
			g.Mean[c][j] /= float64(counts[c])
		}
	}
	for i, x := range ds.X {
		c := ds.Y[i]
		for j, v := range x {
			d := v - g.Mean[c][j]
			g.Var[c][j] += d * d
		}
	}
	const epsilon = 1e-9
	for c := 0; c < 2; c++ {
		if counts[c] > 0 {
			for j := range g.Var[c] {
				g.Var[c][j] = g.Var[c][j]/float64(counts[c]) + epsilon
			}
		}
		g.Prior[c] = float64(counts[c]) / float64(ds.Len())
	}
	return g
}

// PredictProba returns P(class=1 | x) from the class-conditional
// Gaussians via Bayes' rule in log space.
func (g *GNB) PredictProba(x []float64) float64 {
	logp := [2]float64{}
	for c := 0; c < 2; c++ {
		if g.Prior[c] == 0 {
			logp[c] = math.Inf(-1)
			continue
		}
		lp := math.Log(g.Prior[c])
		for j, v := range x {
			d := v - g.Mean[c][j]
			lp += -0.5*math.Log(2*math.Pi*g.Var[c][j]) - d*d/(2*g.Var[c][j])
		}
		logp[c] = lp
	}
	// Softmax over two classes, guarding overflow.
	m := math.Max(logp[0], logp[1])
	if math.IsInf(m, -1) {
		return 0.5
	}
	e0 := math.Exp(logp[0] - m)
	e1 := math.Exp(logp[1] - m)
	return e1 / (e0 + e1)
}
