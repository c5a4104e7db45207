package feed

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func set(items ...string) IndicatorSet {
	s := IndicatorSet{}
	for _, it := range items {
		s.Add(it)
	}
	return s
}

func TestDifferential(t *testing.T) {
	a := set("1", "2", "3", "4")
	b := set("3", "4", "5")
	if d := Differential(a, b); math.Abs(d-0.5) > 1e-12 {
		t.Errorf("Diff = %v, want 0.5", d)
	}
	if d := Differential(a, a); d != 0 {
		t.Errorf("Diff(A,A) = %v, want 0", d)
	}
	if d := Differential(a, set()); d != 1 {
		t.Errorf("Diff(A,∅) = %v, want 1", d)
	}
	if d := Differential(set(), a); d != 0 {
		t.Errorf("Diff(∅,A) = %v, want 0", d)
	}
	if ni := NormalizedIntersection(a, b); math.Abs(ni-0.5) > 1e-12 {
		t.Errorf("NormInt = %v, want 0.5", ni)
	}
}

func TestExclusiveContribution(t *testing.T) {
	a := set("1", "2", "3", "4", "5")
	b := set("1")
	c := set("2", "9")
	if u := ExclusiveContribution(a, b, c); math.Abs(u-0.6) > 1e-12 {
		t.Errorf("Uniq = %v, want 0.6", u)
	}
	if u := ExclusiveContribution(a); u != 1 {
		t.Errorf("Uniq vs nothing = %v, want 1", u)
	}
	if u := ExclusiveContribution(set(), b); u != 0 {
		t.Errorf("Uniq(∅) = %v, want 0", u)
	}
	if n := UnionOverlap(a, b, c); n != 2 {
		t.Errorf("UnionOverlap = %d, want 2", n)
	}
}

func TestCompareFeeds(t *testing.T) {
	ref := set("1", "2", "3", "4", "5", "6", "7", "8", "9", "10")
	rows, overlap, uniq := CompareFeeds(ref, map[string]IndicatorSet{
		"greynoise": set("1", "2", "3", "99"),
		"dshield":   set("3", "4"),
	})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Sorted by name: dshield first.
	if rows[0].FeedName != "dshield" || rows[0].Indicators != 2 {
		t.Errorf("row 0 = %+v", rows[0])
	}
	if math.Abs(rows[0].Differential-0.8) > 1e-12 {
		t.Errorf("dshield diff = %v", rows[0].Differential)
	}
	if rows[1].FeedName != "greynoise" || rows[1].Indicators != 3 {
		t.Errorf("row 1 = %+v", rows[1])
	}
	if overlap != 4 { // {1,2,3,4}
		t.Errorf("overlap = %d, want 4", overlap)
	}
	if math.Abs(uniq-0.6) > 1e-12 {
		t.Errorf("uniq = %v, want 0.6", uniq)
	}
}

func TestLatency(t *testing.T) {
	t0 := time.Date(2020, 12, 9, 7, 30, 0, 0, time.UTC)
	apps := map[string]map[string]time.Time{
		"exiot": {
			"a": t0.Add(5 * time.Hour),
			"b": t0.Add(4 * time.Hour),
		},
		"greynoise": {
			"a": t0.Add(10 * time.Hour),
		},
		"scanner-truth": {
			"a": t0,
			"b": t0,
		},
	}
	lat := Latency(apps)
	if got := lat["exiot"]; got != 4*time.Hour+30*time.Minute {
		t.Errorf("exiot latency = %v, want 4h30m", got)
	}
	if got := lat["greynoise"]; got != 10*time.Hour {
		t.Errorf("greynoise latency = %v, want 10h", got)
	}
	if got := lat["scanner-truth"]; got != 0 {
		t.Errorf("truth latency = %v, want 0", got)
	}
}

func TestIndicatorSetOps(t *testing.T) {
	s := set("x")
	s.Add("y")
	if !s.Contains("y") || s.Contains("z") || s.Len() != 2 {
		t.Errorf("set ops broken: %v", s)
	}
	big := set("1", "2", "3", "4", "5")
	small := set("4", "5", "6")
	if big.Intersect(small) != 2 || small.Intersect(big) != 2 {
		t.Error("Intersect not symmetric")
	}
}

func TestRecordTopPorts(t *testing.T) {
	r := Record{TargetPorts: map[uint16]int{23: 100, 80: 50, 8080: 75, 81: 10}}
	top := r.TopPorts(3)
	if len(top) != 3 || top[0] != 23 || top[1] != 8080 || top[2] != 80 {
		t.Errorf("TopPorts = %v", top)
	}
	if got := r.TopPorts(10); len(got) != 4 {
		t.Errorf("TopPorts over-asks = %v", got)
	}
	empty := Record{}
	if got := empty.TopPorts(3); len(got) != 0 {
		t.Errorf("empty TopPorts = %v", got)
	}
}

func TestRecordIsIoT(t *testing.T) {
	r := Record{Label: LabelIoT}
	if !r.IsIoT() {
		t.Error("IoT record not recognized")
	}
	r.Label = LabelNonIoT
	if r.IsIoT() {
		t.Error("non-IoT record recognized as IoT")
	}
}

func TestTopPortsTieBreak(t *testing.T) {
	r := Record{TargetPorts: map[uint16]int{23: 10, 80: 10, 8080: 10}}
	top := r.TopPorts(3)
	// Equal counts break ties by ascending port for determinism.
	if top[0] != 23 || top[1] != 80 || top[2] != 8080 {
		t.Errorf("tie-broken TopPorts = %v", top)
	}
}

// randomSets builds two random indicator sets from fuzz input.
func randomSets(a, b []uint8) (IndicatorSet, IndicatorSet) {
	sa, sb := make(IndicatorSet), make(IndicatorSet)
	for _, v := range a {
		sa.Add(fmt.Sprintf("10.0.0.%d", v%64))
	}
	for _, v := range b {
		sb.Add(fmt.Sprintf("10.0.0.%d", v%64))
	}
	return sa, sb
}

func TestMetricInvariantsProperty(t *testing.T) {
	f := func(a, b []uint8) bool {
		sa, sb := randomSets(a, b)
		d := Differential(sa, sb)
		ni := NormalizedIntersection(sa, sb)
		// Complementarity and range.
		if d < 0 || d > 1 || ni < 0 || ni > 1 {
			return false
		}
		if math.Abs(d+ni-1) > 1e-12 && sa.Len() > 0 {
			return false
		}
		// Self-comparison: Diff(A,A) = 0 for non-empty A.
		if sa.Len() > 0 && Differential(sa, sa) != 0 {
			return false
		}
		// Exclusive contribution vs one feed equals the differential.
		if math.Abs(ExclusiveContribution(sa, sb)-d) > 1e-12 {
			return false
		}
		// Union overlap is bounded by both set sizes.
		ov := UnionOverlap(sa, sb)
		return ov <= sa.Len() && ov <= sb.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIntersectSymmetricProperty(t *testing.T) {
	f := func(a, b []uint8) bool {
		sa, sb := randomSets(a, b)
		return sa.Intersect(sb) == sb.Intersect(sa)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
