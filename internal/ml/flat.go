package ml

// FlatNode is one node of a flattened forest arena. Interior nodes carry
// the split (Feature >= 0, Threshold) and the arena index of their left
// child; the right child always sits at Left+1, so no Right field is
// stored. Leaves have Feature == -1 and keep the positive-class
// probability in Threshold. The whole node is 16 bytes — 2.5× denser
// than the 40-byte training node — which is what buys the walk its cache
// hit rate.
type FlatNode struct {
	Threshold float64 `json:"t"`
	Feature   int32   `json:"f"`
	Left      int32   `json:"l"`
}

// FlatForest is a trained Forest re-laid-out for inference: every tree's
// nodes live in one contiguous arena with rebased child indices, so a
// prediction walks a single cache-friendly slice instead of chasing one
// heap allocation per tree. Scores are bit-identical to the pointer
// forest's — same leaves, same tree-order summation — which is what lets
// the parallel feed path swap it in without changing any record.
type FlatForest struct {
	Nodes []FlatNode `json:"nodes"`
	Roots []int32    `json:"roots"`
}

// Flatten packs the forest's trees into a FlatForest arena. Each tree is
// re-laid-out so that every interior node's two children occupy adjacent
// arena slots (left at Left, right at Left+1) — sibling subtrees the walk
// is about to choose between share a cache line.
func (f *Forest) Flatten() *FlatForest {
	total := 0
	for _, t := range f.Trees {
		total += len(t.Nodes)
	}
	ff := &FlatForest{
		Nodes: make([]FlatNode, total),
		Roots: make([]int32, 0, len(f.Trees)),
	}
	next := int32(0)
	for _, t := range f.Trees {
		if len(t.Nodes) == 0 {
			continue
		}
		root := next
		ff.Roots = append(ff.Roots, root)
		next++
		// Pair-allocating DFS: place src node src at arena slot dst,
		// handing each interior node two consecutive child slots.
		type frame struct{ src, dst int32 }
		stack := []frame{{0, root}}
		for len(stack) > 0 {
			fr := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			n := &t.Nodes[fr.src]
			fn := &ff.Nodes[fr.dst]
			fn.Feature = int32(n.Feature)
			if n.Feature < 0 {
				fn.Threshold = n.Prob
				continue
			}
			fn.Threshold = n.Threshold
			fn.Left = next
			next += 2
			stack = append(stack, frame{n.Right, fn.Left + 1}, frame{n.Left, fn.Left})
		}
	}
	return ff
}

// predictTree walks one tree from its arena root to a leaf.
func (ff *FlatForest) predictTree(root int32, x []float64) float64 {
	nodes := ff.Nodes
	i := root
	for {
		n := &nodes[i]
		if n.Feature < 0 {
			return n.Threshold
		}
		// Branchless child select: right sits at Left+1.
		i = n.Left
		if x[n.Feature] > n.Threshold {
			i++
		}
	}
}

// PredictProba averages the trees' leaf probabilities. Allocation-free.
func (ff *FlatForest) PredictProba(x []float64) float64 {
	if len(ff.Roots) == 0 {
		return 0
	}
	var sum float64
	for _, root := range ff.Roots {
		sum += ff.predictTree(root, x)
	}
	return sum / float64(len(ff.Roots))
}
