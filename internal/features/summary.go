package features

import (
	"math"
	"math/bits"
)

// A flow vector needs five order statistics per column, not a sorted
// column: min, max, and the two sorted neighbours each quartile
// interpolates between. Columns hold order keys, and summarize finds the
// neighbours by radix selection — histogram 8 bits, from the highest bit
// in which the column's min and max differ down, scatter, and descend
// only into the buckets that hold a wanted rank. DESIGN.md, "Flow summaries without
// sorting", gives the reasoning.

// quartiles are the interpolated statistics between min and max.
var quartiles = [3]float64{0.25, 0.50, 0.75}

// smallSort is the size at and below which selection insertion-sorts.
const smallSort = 32

// orderKey maps a float64 to a uint64 whose unsigned order is the
// float's total order (-Inf < … < -0 < +0 < … < +Inf): it sets the sign
// bit of a non-negative value and flips every bit of a negative one.
func orderKey(v float64) uint64 {
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// keyValue inverts orderKey.
func keyValue(k uint64) float64 {
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
}

// summarize appends the min, Q1, median, Q3 and max of the column whose
// order keys are keys. The quartiles are the linear interpolation
// v*(1-frac) + w*frac between the sorted neighbours v and w that sorting
// the column would put at positions ⌊q(n-1)⌋ and ⌊q(n-1)⌋+1, so the
// result equals sorting and interpolating bit for bit. summarize
// reorders keys; buf is scratch of the same length.
//
// The values are finite, never NaN: every Table II field is an integer
// or boolean conversion or a non-negative Duration.Seconds(). NaN has
// no place in a float sort, so there would be no result to equal.
func summarize(dst []float64, keys, buf []uint64, lo, hi uint64) []float64 {
	n := len(keys)
	// The distinct wanted positions, ascending. The quartiles' ⌊q(n-1)⌋
	// ascend, so each position is new or equal to one already listed.
	var ranks [2 * len(quartiles)]int
	m := 0
	for _, q := range quartiles {
		r := int(q * float64(n-1))
		for _, p := range [2]int{r, r + 1} {
			if m == 0 || p > ranks[m-1] {
				ranks[m] = p
				m++
			}
		}
	}
	// For n = 1 the list runs one past the column. That column is
	// constant, and selectRanks fills a constant column's every slot
	// with lo without reading a position.
	var at [len(ranks)]uint64
	selectRanks(keys, buf, 0, lo, hi, ranks[:m], at[:m])

	dst = append(dst, keyValue(lo))
	for _, q := range quartiles {
		pos := q * float64(n-1)
		r := int(pos)
		frac := pos - float64(r)
		j := 0
		for ranks[j] != r {
			j++
		}
		v, w := keyValue(at[j]), keyValue(at[j+1])
		dst = append(dst, v*(1-frac)+w*frac)
	}
	return append(dst, keyValue(hi))
}

// selectRanks sets at[j] to the key at sorted position ranks[j]. keys
// holds, in any order, exactly the keys of sorted positions
// [base, base+len(keys)); lo and hi are its least and greatest; ranks
// ascend. buf is scratch of len(keys), and the two swap roles at each
// level down.
func selectRanks(keys, buf []uint64, base int, lo, hi uint64, ranks []int, at []uint64) {
	if lo == hi {
		for j := range at {
			at[j] = lo
		}
		return
	}
	if len(keys) <= smallSort {
		insertionSort(keys)
		for j, r := range ranks {
			at[j] = keys[r-base]
		}
		return
	}
	// Every key shares lo's bits above the highest bit in which lo and hi
	// differ; bucket on the 8 bits from that one down.
	shift := uint(max(bits.Len64(lo^hi)-8, 0))
	first := int(uint8(lo >> shift))
	var count [256]uint32
	for _, k := range keys {
		count[uint8(k>>shift)]++
	}
	var sum uint32
	for b := first; b <= int(uint8(hi>>shift)); b++ {
		sum, count[b] = sum+count[b], sum
	}
	for _, k := range keys {
		b := uint8(k >> shift)
		buf[count[b]] = k
		count[b]++
	}
	// count[b] now ends bucket b. A bucket holding a wanted rank is
	// selected in on its own min and max: one bucket can hold nearly the
	// whole column (a first inter-arrival of 0 beside seconds-scale
	// gaps puts every other value in the bucket of the exponent).
	start, j := 0, 0
	for b := first; j < len(ranks); b++ {
		end := int(count[b])
		k := j
		for k < len(ranks) && ranks[k] < base+end {
			k++
		}
		if k > j {
			sub := buf[start:end]
			slo, shi := minMax(sub)
			selectRanks(sub, keys[start:end], base+start, slo, shi, ranks[j:k], at[j:k])
			j = k
		}
		start = end
	}
}

func minMax(keys []uint64) (lo, hi uint64) {
	lo, hi = keys[0], keys[0]
	for _, k := range keys[1:] {
		lo = min(lo, k)
		hi = max(hi, k)
	}
	return lo, hi
}

func insertionSort(a []uint64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
