package ml

import (
	"math/rand"
	"sync"
	"testing"
)

// flatTestForest trains a moderately sized forest over a synthetic
// two-class dataset (same shape the annotate hot path sees).
func flatTestForest(t testing.TB, trees int) (*Forest, *Dataset) {
	t.Helper()
	var ds Dataset
	const dim = 120
	for i := 0; i < 300; i++ {
		x := make([]float64, dim)
		for j := range x {
			x[j] = float64((i*7+j*13)%101) / 101
			if i%2 == 1 {
				x[j] += 1.2
			}
		}
		ds.Append(x, i%2)
	}
	return TrainForest(&ds, ForestConfig{NumTrees: trees, Seed: 42}), &ds
}

// TestFlattenPredictionsIdentical proves the arena layout is a pure
// re-layout: every score is bit-identical to the pointer forest's.
func TestFlattenPredictionsIdentical(t *testing.T) {
	forest, ds := flatTestForest(t, 50)
	flat := forest.Flatten()
	if len(flat.Roots) != len(forest.Trees) {
		t.Fatalf("%d roots, want %d trees", len(flat.Roots), len(forest.Trees))
	}
	wantNodes := 0
	for _, tr := range forest.Trees {
		wantNodes += len(tr.Nodes)
	}
	if len(flat.Nodes) != wantNodes {
		t.Fatalf("arena holds %d nodes, trees hold %d", len(flat.Nodes), wantNodes)
	}
	for i, x := range ds.X {
		want := forest.PredictProba(x)
		got := flat.PredictProba(x)
		if got != want {
			t.Fatalf("sample %d: flat %v != pointer %v (must be bit-identical)", i, got, want)
		}
	}
}

// TestFlatForestConcurrentPredict scores every row from four goroutines
// at once: the arena is read-only, so each score equals the serial one,
// and -race sees no write.
func TestFlatForestConcurrentPredict(t *testing.T) {
	forest, ds := flatTestForest(t, 30)
	flat := forest.Flatten()
	want := make([]float64, len(ds.X))
	for i, x := range ds.X {
		want[i] = flat.PredictProba(x)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, x := range ds.X {
				if got := flat.PredictProba(x); got != want[i] {
					t.Errorf("row %d: concurrent %v != serial %v", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestFlatForestPredictZeroAlloc is the allocation-regression guard for
// the classification hot path: scoring must not allocate.
func TestFlatForestPredictZeroAlloc(t *testing.T) {
	forest, ds := flatTestForest(t, 30)
	flat := forest.Flatten()
	x := ds.X[0]
	if allocs := testing.AllocsPerRun(100, func() {
		flat.PredictProba(x)
	}); allocs != 0 {
		t.Errorf("FlatForest.PredictProba allocates %.1f objects/op, want 0", allocs)
	}

	// A batch's worth of rows, as annotate scores them.
	if allocs := testing.AllocsPerRun(20, func() {
		for _, x := range ds.X {
			flat.PredictProba(x)
		}
	}); allocs != 0 {
		t.Errorf("FlatForest.PredictProba over %d rows allocates %.1f objects/op, want 0", len(ds.X), allocs)
	}
}

// TestFlattenEmptyForest covers the degenerate case.
func TestFlattenEmptyForest(t *testing.T) {
	flat := (&Forest{}).Flatten()
	if got := flat.PredictProba([]float64{1, 2}); got != 0 {
		t.Errorf("empty forest scored %v, want 0", got)
	}
}

// BenchmarkForestLayout compares the pointer-tree forest against its
// flattened node-arena form on identical inputs — the layout ablation
// behind the classify hot path. Scores are bit-identical across both;
// only locality and allocation behaviour differ.
func BenchmarkForestLayout(b *testing.B) {
	// A noisy, overlapping dataset: trees grow deep (hundreds of nodes),
	// which is where node size and arena locality decide the walk cost —
	// a trivially separable set yields depth-1 trees and hides the
	// layout entirely.
	const dim = 120
	r := rand.New(rand.NewSource(9))
	var ds Dataset
	for i := 0; i < 2000; i++ {
		x := make([]float64, dim)
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
	forest := TrainForest(&ds, ForestConfig{NumTrees: 100, Seed: 1})
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
}
