package feed

import (
	"sort"
	"time"
)

// IndicatorSet is a set of feed indicators (IP addresses as strings).
type IndicatorSet map[string]struct{}

// Add inserts one indicator.
func (s IndicatorSet) Add(item string) { s[item] = struct{}{} }

// Contains reports membership.
func (s IndicatorSet) Contains(item string) bool {
	_, ok := s[item]
	return ok
}

// Len returns the set's cardinality.
func (s IndicatorSet) Len() int { return len(s) }

// Intersect returns |s ∩ other|.
func (s IndicatorSet) Intersect(other IndicatorSet) int {
	small, large := s, other
	if len(large) < len(small) {
		small, large = large, small
	}
	n := 0
	for it := range small {
		if large.Contains(it) {
			n++
		}
	}
	return n
}

// Differential computes Diff_{A,B} = |A\B| / |A|: the fraction of A's
// indicators absent from B. 1 means disjoint feeds, 0 means A ⊆ B.
func Differential(a, b IndicatorSet) float64 {
	if len(a) == 0 {
		return 0
	}
	return float64(len(a)-a.Intersect(b)) / float64(len(a))
}

// NormalizedIntersection is 1 − Diff_{A,B}.
func NormalizedIntersection(a, b IndicatorSet) float64 {
	return 1 - Differential(a, b)
}

// ExclusiveContribution computes Uniq_{A,B} = |A \ ∪(others)| / |A|: the
// fraction of A's indicators no other feed carries.
func ExclusiveContribution(a IndicatorSet, others ...IndicatorSet) float64 {
	if len(a) == 0 {
		return 0
	}
	unique := 0
	for it := range a {
		found := false
		for _, o := range others {
			if o.Contains(it) {
				found = true
				break
			}
		}
		if !found {
			unique++
		}
	}
	return float64(unique) / float64(len(a))
}

// UnionOverlap returns |A ∩ (∪ others)| — the complement count reported
// in Table IV.
func UnionOverlap(a IndicatorSet, others ...IndicatorSet) int {
	n := 0
	for it := range a {
		for _, o := range others {
			if o.Contains(it) {
				n++
				break
			}
		}
	}
	return n
}

// ContributionReport is one Table IV row set: eX-IoT contrasted against
// another feed.
type ContributionReport struct {
	FeedName               string  `json:"feed"`
	Indicators             int     `json:"indicators"`
	Differential           float64 `json:"differential"`
	NormalizedIntersection float64 `json:"normalized_intersection"`
}

// CompareFeeds produces Table IV: per-feed differential metrics plus the
// aggregate exclusive contribution of the reference feed.
func CompareFeeds(ref IndicatorSet, against map[string]IndicatorSet) (rows []ContributionReport, unionOverlap int, uniq float64) {
	names := make([]string, 0, len(against))
	for name := range against {
		names = append(names, name)
	}
	sort.Strings(names)
	others := make([]IndicatorSet, 0, len(against))
	for _, name := range names {
		other := against[name]
		rows = append(rows, ContributionReport{
			FeedName:               name,
			Indicators:             ref.Intersect(other),
			Differential:           Differential(ref, other),
			NormalizedIntersection: NormalizedIntersection(ref, other),
		})
		others = append(others, other)
	}
	return rows, UnionOverlap(ref, others...), ExclusiveContribution(ref, others...)
}

// Latency computes, per feed, the delay between an indicator's first
// appearance in any feed and its appearance in that feed — the paper's
// latency metric. appearances maps feed name → indicator → first-seen.
func Latency(appearances map[string]map[string]time.Time) map[string]time.Duration {
	// Earliest sighting across feeds per indicator.
	earliest := map[string]time.Time{}
	for _, feedApp := range appearances {
		for ind, ts := range feedApp {
			if cur, ok := earliest[ind]; !ok || ts.Before(cur) {
				earliest[ind] = ts
			}
		}
	}
	out := make(map[string]time.Duration, len(appearances))
	for name, feedApp := range appearances {
		var total time.Duration
		n := 0
		for ind, ts := range feedApp {
			total += ts.Sub(earliest[ind])
			n++
		}
		if n > 0 {
			out[name] = total / time.Duration(n)
		}
	}
	return out
}

// VolumeRow is one Table III row: daily indicator volume.
type VolumeRow struct {
	FeedName    string  `json:"feed"`
	AllPerDay   float64 `json:"all_per_day"`
	IoTPerDay   float64 `json:"iot_per_day"`
	HasIoTViews bool    `json:"has_iot_views"`
}
