package ml

import (
	"math/rand"
	"sort"
)

// treeConfig parameterizes CART training.
type treeConfig struct {
	// maxDepth bounds tree depth (0 = unbounded).
	maxDepth int
	// minSamplesLeaf is the minimum samples in a leaf (default 1).
	minSamplesLeaf int
	// maxFeatures is the number of features examined per split
	// (0 = all; forests pass √d).
	maxFeatures int
}

// treeNode is one node in the flattened tree representation. Leaves have
// Feature == -1 and carry the positive-class probability.
type treeNode struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t"`
	Left      int32   `json:"l"`
	Right     int32   `json:"r"`
	Prob      float64 `json:"p"`
	// Gain is the split's total impurity decrease (per-sample decrease ×
	// node size); it feeds impurity-based feature importance.
	Gain float64 `json:"g,omitempty"`
}

// Tree is a trained CART decision tree.
type Tree struct {
	Nodes []treeNode `json:"nodes"`
}

var _ Classifier = (*Tree)(nil)

// PredictProba walks the tree and returns the leaf's positive-class
// probability.
func (t *Tree) PredictProba(x []float64) float64 {
	i := int32(0)
	for {
		n := &t.Nodes[i]
		if n.Feature < 0 {
			return n.Prob
		}
		if x[n.Feature] <= n.Threshold {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// treeBuilder holds the working state of one training run.
type treeBuilder struct {
	cfg  treeConfig
	x    [][]float64
	y    []int
	rng  *rand.Rand
	out  []treeNode
	nfea int
}

// trainTree fits a CART tree on (a view of) ds restricted to idx. A nil
// idx uses every sample. rng drives per-split feature subsampling; it may
// be nil when maxFeatures is 0.
func trainTree(ds *Dataset, cfg treeConfig, idx []int, rng *rand.Rand) *Tree {
	if cfg.minSamplesLeaf <= 0 {
		cfg.minSamplesLeaf = 1
	}
	if idx == nil {
		idx = make([]int, ds.Len())
		for i := range idx {
			idx[i] = i
		}
	}
	b := &treeBuilder{cfg: cfg, x: ds.X, y: ds.Y, rng: rng, nfea: ds.NumFeatures()}
	b.build(idx, 0)
	return &Tree{Nodes: b.out}
}

// build grows the subtree over idx and returns its node index.
func (b *treeBuilder) build(idx []int, depth int) int32 {
	pos := 0
	for _, i := range idx {
		pos += b.y[i]
	}
	prob := float64(pos) / float64(len(idx))

	makeLeaf := func() int32 {
		b.out = append(b.out, treeNode{Feature: -1, Prob: prob})
		return int32(len(b.out) - 1)
	}

	if pos == 0 || pos == len(idx) ||
		(b.cfg.maxDepth > 0 && depth >= b.cfg.maxDepth) ||
		len(idx) < 2*b.cfg.minSamplesLeaf {
		return makeLeaf()
	}

	feature, threshold, gain, ok := b.bestSplit(idx)
	if !ok {
		return makeLeaf()
	}

	var left, right []int
	for _, i := range idx {
		if b.x[i][feature] <= threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < b.cfg.minSamplesLeaf || len(right) < b.cfg.minSamplesLeaf {
		return makeLeaf()
	}

	me := int32(len(b.out))
	b.out = append(b.out, treeNode{Feature: feature, Threshold: threshold, Gain: gain})
	l := b.build(left, depth+1)
	r := b.build(right, depth+1)
	b.out[me].Left = l
	b.out[me].Right = r
	return me
}

// bestSplit scans candidate features for the split minimizing weighted
// Gini impurity. gain is the total impurity decrease of the winner.
func (b *treeBuilder) bestSplit(idx []int) (feature int, threshold float64, gain float64, ok bool) {
	features := b.candidateFeatures()
	bestGini := 2.0 // any real split scores < 1

	vals := make([]float64, len(idx))
	order := make([]int, len(idx))
	for _, f := range features {
		for k, i := range idx {
			vals[k] = b.x[i][f]
			order[k] = k
		}
		sort.Slice(order, func(a, c int) bool { return vals[order[a]] < vals[order[c]] })

		totalPos := 0
		for _, i := range idx {
			totalPos += b.y[i]
		}
		n := len(idx)
		leftPos, leftN := 0, 0
		for k := 0; k < n-1; k++ {
			i := idx[order[k]]
			leftN++
			leftPos += b.y[i]
			v, next := vals[order[k]], vals[order[k+1]]
			if v == next {
				continue // can't split between equal values
			}
			rightN := n - leftN
			rightPos := totalPos - leftPos
			gini := weightedGini(leftPos, leftN, rightPos, rightN)
			if gini < bestGini {
				bestGini = gini
				feature = f
				threshold = (v + next) / 2
				ok = true
			}
		}
	}
	if ok {
		totalPos := 0
		for _, i := range idx {
			totalPos += b.y[i]
		}
		p := float64(totalPos) / float64(len(idx))
		parentGini := 2 * p * (1 - p)
		gain = (parentGini - bestGini) * float64(len(idx))
	}
	return feature, threshold, gain, ok
}

func weightedGini(leftPos, leftN, rightPos, rightN int) float64 {
	gini := func(pos, n int) float64 {
		if n == 0 {
			return 0
		}
		p := float64(pos) / float64(n)
		return 2 * p * (1 - p)
	}
	n := float64(leftN + rightN)
	return float64(leftN)/n*gini(leftPos, leftN) + float64(rightN)/n*gini(rightPos, rightN)
}

// candidateFeatures returns the features to examine for one split.
func (b *treeBuilder) candidateFeatures() []int {
	if b.cfg.maxFeatures <= 0 || b.cfg.maxFeatures >= b.nfea || b.rng == nil {
		all := make([]int, b.nfea)
		for i := range all {
			all[i] = i
		}
		return all
	}
	perm := b.rng.Perm(b.nfea)
	return perm[:b.cfg.maxFeatures]
}
