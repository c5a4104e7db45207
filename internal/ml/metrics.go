package ml

import "sort"

// ROCAUC computes the area under the ROC curve from scores and binary
// labels using the rank statistic (ties share ranks). Returns 0.5 when a
// class is absent.
func ROCAUC(scores []float64, labels []int) float64 {
	n := len(scores)
	pos, neg := 0, 0
	for _, y := range labels {
		if y == 1 {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return 0.5
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })

	// Assign average ranks over tie groups, accumulate positive ranks.
	var sumPosRanks float64
	i := 0
	for i < n {
		j := i
		for j+1 < n && scores[idx[j+1]] == scores[idx[i]] {
			j++
		}
		avgRank := float64(i+j)/2 + 1 // ranks are 1-based
		for k := i; k <= j; k++ {
			if labels[idx[k]] == 1 {
				sumPosRanks += avgRank
			}
		}
		i = j + 1
	}
	p := float64(pos)
	return (sumPosRanks - p*(p+1)/2) / (p * float64(neg))
}

// Confusion holds a binary confusion matrix.
type Confusion struct {
	TP, FP, TN, FN int
}

// ConfusionMatrix tallies predictions against labels.
func ConfusionMatrix(pred, labels []int) Confusion {
	var c Confusion
	for i := range pred {
		switch {
		case pred[i] == 1 && labels[i] == 1:
			c.TP++
		case pred[i] == 1 && labels[i] == 0:
			c.FP++
		case pred[i] == 0 && labels[i] == 0:
			c.TN++
		default:
			c.FN++
		}
	}
	return c
}

// Precision is TP/(TP+FP); the paper calls this the feed's accuracy.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall is TP/(TP+FN); the paper calls this the feed's coverage.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 is the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// PrecisionRecallF1 is a convenience wrapper over ConfusionMatrix.
func PrecisionRecallF1(pred, labels []int) (precision, recall, f1 float64) {
	c := ConfusionMatrix(pred, labels)
	return c.Precision(), c.Recall(), c.F1()
}
