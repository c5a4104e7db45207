package ml

import (
	"fmt"
	"math"
	"math/rand"

	"exiot/internal/fanout"
)

// ForestConfig parameterizes random-forest training.
type ForestConfig struct {
	NumTrees       int     `json:"num_trees"`
	MaxDepth       int     `json:"max_depth"`
	MinSamplesLeaf int     `json:"min_samples_leaf"`
	MaxFeatures    int     `json:"max_features"` // 0 = √d
	Subsample      float64 `json:"subsample"`    // bootstrap fraction, default 1.0
	Seed           int64   `json:"seed"`
}

func (c ForestConfig) withDefaults(numFeatures int) ForestConfig {
	if c.NumTrees <= 0 {
		c.NumTrees = 100
	}
	if c.MinSamplesLeaf <= 0 {
		c.MinSamplesLeaf = 1
	}
	if c.MaxFeatures <= 0 {
		c.MaxFeatures = int(math.Sqrt(float64(numFeatures)))
		if c.MaxFeatures < 1 {
			c.MaxFeatures = 1
		}
	}
	if c.Subsample <= 0 || c.Subsample > 1 {
		c.Subsample = 1.0
	}
	return c
}

// Forest is a trained random forest.
type Forest struct {
	Config ForestConfig `json:"config"`
	Trees  []*Tree      `json:"trees"`
}

var _ Classifier = (*Forest)(nil)

// PredictProba averages the trees' leaf probabilities.
func (f *Forest) PredictProba(x []float64) float64 {
	if len(f.Trees) == 0 {
		return 0
	}
	var sum float64
	for _, t := range f.Trees {
		sum += t.PredictProba(x)
	}
	return sum / float64(len(f.Trees))
}

// Validate reports whether a forest decoded from bytes this process did
// not write is safe to walk and Flatten over numFeatures-wide vectors.
// It holds every tree to what treeBuilder's pre-order layout always
// produces: a non-empty node list in which each interior node's two
// distinct children sit at higher indices (so a walk terminates) and
// every node but the root has exactly one parent (so Flatten's arena,
// sized by node count, is filled exactly once), splits read a feature
// the vector has against a finite threshold, and leaves carry a
// probability.
func (f *Forest) Validate(numFeatures int) error {
	for ti, t := range f.Trees {
		if t == nil || len(t.Nodes) == 0 {
			return fmt.Errorf("ml: tree %d is empty", ti)
		}
		parents := make([]int32, len(t.Nodes))
		for i, n := range t.Nodes {
			if n.Feature < 0 {
				if !(n.Prob >= 0 && n.Prob <= 1) {
					return fmt.Errorf("ml: tree %d leaf %d: probability %v outside [0, 1]", ti, i, n.Prob)
				}
				continue
			}
			if n.Feature >= numFeatures {
				return fmt.Errorf("ml: tree %d node %d splits on feature %d of %d", ti, i, n.Feature, numFeatures)
			}
			if math.IsNaN(n.Threshold) || math.IsInf(n.Threshold, 0) {
				return fmt.Errorf("ml: tree %d node %d: threshold %v is not finite", ti, i, n.Threshold)
			}
			l, r := int(n.Left), int(n.Right)
			if l <= i || r <= i || l >= len(t.Nodes) || r >= len(t.Nodes) || l == r {
				return fmt.Errorf("ml: tree %d node %d: children %d, %d are not two later nodes of %d", ti, i, l, r, len(t.Nodes))
			}
			parents[l]++
			parents[r]++
		}
		for i, p := range parents[1:] {
			if p != 1 {
				return fmt.Errorf("ml: tree %d node %d has %d parents", ti, i+1, p)
			}
		}
	}
	return nil
}

// TrainForest fits a random forest with bootstrap sampling and per-split
// feature subsampling, training trees across GOMAXPROCS goroutines.
func TrainForest(ds *Dataset, cfg ForestConfig) *Forest {
	cfg = cfg.withDefaults(ds.NumFeatures())
	forest := &Forest{Config: cfg, Trees: make([]*Tree, cfg.NumTrees)}

	// Pre-derive independent seeds so tree training order cannot change
	// results.
	seedRng := rand.New(rand.NewSource(cfg.Seed))
	seeds := make([]int64, cfg.NumTrees)
	for i := range seeds {
		seeds[i] = seedRng.Int63()
	}

	fanout.Run(cfg.NumTrees, 0, func(_, ti int) {
		rng := rand.New(rand.NewSource(seeds[ti]))
		n := int(float64(ds.Len()) * cfg.Subsample)
		if n < 1 {
			n = 1
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(ds.Len())
		}
		treeCfg := TreeConfig{
			MaxDepth:       cfg.MaxDepth,
			MinSamplesLeaf: cfg.MinSamplesLeaf,
			MaxFeatures:    cfg.MaxFeatures,
		}
		forest.Trees[ti] = TrainTree(ds, treeCfg, idx, rng)
	})
	return forest
}

// SearchResult records one hyper-parameter search trial.
type SearchResult struct {
	Config ForestConfig
	AUC    float64
	F1     float64
}

// SearchForest performs the paper's model selection: it trains candidate
// random forests over a tuned hyper-parameter grid for up to iterations
// trials and returns the model maximizing ROC-AUC on the test split,
// together with every trial's result.
func SearchForest(train, test *Dataset, iterations int, seed int64) (*Forest, []SearchResult) {
	if iterations <= 0 {
		iterations = 10
	}
	grid := candidateConfigs(seed)
	if iterations < len(grid) {
		grid = grid[:iterations]
	}

	var (
		best    *Forest
		bestAUC = -1.0
		results []SearchResult
	)
	for _, cfg := range grid {
		f := TrainForest(train, cfg)
		scores := Scores(f, test)
		auc := ROCAUC(scores, test.Y)
		_, _, f1 := PrecisionRecallF1(Predictions(f, test), test.Y)
		results = append(results, SearchResult{Config: cfg, AUC: auc, F1: f1})
		if auc > bestAUC {
			bestAUC = auc
			best = f
		}
	}
	return best, results
}

// candidateConfigs enumerates the tuned hyper-parameter set, seeded so
// repeated searches explore identical candidates.
func candidateConfigs(seed int64) []ForestConfig {
	var out []ForestConfig
	i := int64(0)
	for _, trees := range []int{25, 50, 100} {
		for _, depth := range []int{0, 8, 16} {
			for _, leaf := range []int{1, 3, 5} {
				out = append(out, ForestConfig{
					NumTrees:       trees,
					MaxDepth:       depth,
					MinSamplesLeaf: leaf,
					Seed:           seed + i,
				})
				i++
			}
		}
	}
	return out
}

// FeatureImportances returns impurity-based importances: each split's
// total Gini decrease is credited to its feature, summed over all trees,
// and normalized to sum to 1. dim is the feature-space dimensionality.
func (f *Forest) FeatureImportances(dim int) []float64 {
	imp := make([]float64, dim)
	for _, t := range f.Trees {
		for i := range t.Nodes {
			n := &t.Nodes[i]
			if n.Feature >= 0 && n.Feature < dim {
				imp[n.Feature] += n.Gain
			}
		}
	}
	var total float64
	for _, v := range imp {
		total += v
	}
	if total > 0 {
		for i := range imp {
			imp[i] /= total
		}
	}
	return imp
}
