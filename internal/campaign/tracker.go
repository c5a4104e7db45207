package campaign

// Cross-hour campaign tracking: where Infer is a one-shot clustering of
// whatever records it is handed, Tracker keeps campaign *identity*
// across repeated inferences — the feed snapshot is re-clustered after
// every rebuild, and campaigns that persist keep their IDs, so an
// operator watching the console sees "C-000003 grew from 12 to 31 bots
// overnight" instead of a fresh anonymous table every refresh. This is
// the longitudinal view the telescope literature argues for: campaigns
// are born, grow, decay, and die over days, and the interesting signal
// is the trajectory, not the instant.

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"exiot/internal/feed"
)

// Tracked is one campaign with a stable identity across updates.
type Tracked struct {
	// ID is stable for the campaign's lifetime ("C-000001", assigned in
	// birth order).
	ID string
	// Campaign is the current cluster state from the latest update.
	Campaign
	// FirstSeen / LastSeen bound the campaign's observed lifetime:
	// FirstSeen is the update instant that created it, LastSeen the most
	// recent update in which inference still produced it.
	FirstSeen time.Time
	LastSeen  time.Time
	// Updates counts how many updates matched this campaign.
	Updates int
	// History samples the campaign's trajectory, oldest first, bounded
	// to maxHistory points.
	History []HistoryPoint
}

// Active reports whether the campaign appeared in the latest update
// (asOf = the tracker's last update time).
func (tc *Tracked) Active(asOf time.Time) bool { return !tc.LastSeen.Before(asOf) }

// HistoryPoint is one sampled state of a tracked campaign.
type HistoryPoint struct {
	At time.Time `json:"at"`
	// Size and Records mirror the campaign's membership at the sample.
	Size    int `json:"size"`
	Records int `json:"records"`
	// Signature captures drift in the port set / tool over time.
	Signature string `json:"signature"`
	// TopCountries are the 3 most common member countries.
	TopCountries []string `json:"top_countries,omitempty"`
}

// The tracking operating point.
const (
	// matchOverlap links an inferred campaign to a tracked one when
	// their member-IP containment (|intersection| / smaller set) is at
	// least this. Containment rather than jaccard so a campaign tripling
	// overnight still matches its younger self.
	matchOverlap = 0.5
	// retire drops a campaign not seen for longer than this: the feed's
	// own record-lapse window.
	retire = 14 * 24 * time.Hour
	// maxHistory bounds each campaign's trajectory samples: two weeks of
	// half-hourly points.
	maxHistory = 336
)

// Tracker is the incremental clusterer. All methods are safe for
// concurrent use; Update is typically driven from feed-snapshot
// rebuilds, Campaigns from the console/API read path.
type Tracker struct {
	mu       sync.Mutex
	nextID   int
	tracked  []*Tracked // birth order (ascending ID)
	lastSeen time.Time  // instant of the most recent update
}

// NewTracker builds an empty tracker.
func NewTracker() *Tracker { return &Tracker{} }

// Update re-infers campaigns over the records each visits and
// reconciles them with the tracked set as of now: matched campaigns keep
// their IDs and grow their history, unmatched inferences are born with
// fresh IDs, and tracked campaigns beyond the retire window are dropped.
// Update is deterministic: the same record set against the same tracker
// state yields the same IDs in the same order, so repeated snapshot
// rebuilds over an unchanged feed are idempotent. Update reads the
// records only while it runs, so each may visit them in place (a feed
// snapshot's EachRecord, say).
func (t *Tracker) Update(each func(visit func(*feed.Record)), now time.Time) {
	inferred := infer(each)

	t.mu.Lock()
	defer t.mu.Unlock()
	t.lastSeen = now

	// Greedy assignment in inference order (size desc, signature asc —
	// deterministic): each inferred campaign claims its best unclaimed
	// tracked ancestor by member overlap, ties to the oldest ID.
	claimed := make(map[*Tracked]bool, len(t.tracked))
	for i := range inferred {
		inf := &inferred[i]
		best := t.bestMatch(inf, claimed)
		if best == nil {
			t.nextID++
			best = &Tracked{
				ID:        fmt.Sprintf("C-%06d", t.nextID),
				FirstSeen: now,
			}
			t.tracked = append(t.tracked, best)
		}
		claimed[best] = true
		best.Campaign = *inf
		best.LastSeen = now
		best.Updates++
		best.History = appendHistory(best.History, HistoryPoint{
			At:           now,
			Size:         inf.Size(),
			Records:      inf.Records,
			Signature:    inf.Signature.String(),
			TopCountries: inf.TopCountries(3),
		})
	}

	// Decay: unmatched campaigns linger (still listed, marked inactive
	// by their stale LastSeen) until the retire window closes on them.
	kept := t.tracked[:0]
	for _, tc := range t.tracked {
		if !claimed[tc] && now.Sub(tc.LastSeen) > retire {
			continue
		}
		kept = append(kept, tc)
	}
	t.tracked = kept
}

// bestMatch finds the unclaimed tracked campaign with the highest
// member overlap against inf (same tool required, overlap ≥
// matchOverlap). Ties break to the older campaign — identity outlives
// splits.
func (t *Tracker) bestMatch(inf *Campaign, claimed map[*Tracked]bool) *Tracked {
	members := make(map[string]bool, len(inf.IPs))
	for _, ip := range inf.IPs {
		members[ip] = true
	}
	var best *Tracked
	bestOverlap := 0.0
	for _, tc := range t.tracked { // ascending ID: first win is oldest
		if claimed[tc] || tc.Signature.Tool != inf.Signature.Tool {
			continue
		}
		inter := 0
		for _, ip := range tc.IPs {
			if members[ip] {
				inter++
			}
		}
		smaller := len(tc.IPs)
		if len(inf.IPs) < smaller {
			smaller = len(inf.IPs)
		}
		if smaller == 0 {
			continue
		}
		overlap := float64(inter) / float64(smaller)
		if overlap >= matchOverlap && overlap > bestOverlap {
			best, bestOverlap = tc, overlap
		}
	}
	return best
}

// appendHistory appends p, coalescing consecutive identical states so
// an idle feed does not grow the trajectory, and trims to maxHistory
// points.
func appendHistory(h []HistoryPoint, p HistoryPoint) []HistoryPoint {
	if n := len(h); n > 0 {
		last := h[n-1]
		if last.Size == p.Size && last.Records == p.Records && last.Signature == p.Signature {
			return h
		}
	}
	h = append(h, p)
	if len(h) > maxHistory {
		h = h[len(h)-maxHistory:]
	}
	return h
}

// Campaigns returns the tracked set sorted for display: campaigns seen
// in the latest update first (size desc, then ID), then decaying ones
// (most recently seen first, then ID). The returned slice and its
// history slices are copies safe to hold across updates.
func (t *Tracker) Campaigns() []Tracked {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Tracked, 0, len(t.tracked))
	for _, tc := range t.tracked {
		cp := *tc
		cp.History = append([]HistoryPoint(nil), tc.History...)
		cp.IPs = append([]string(nil), tc.IPs...)
		countries := make(map[string]int, len(tc.Countries))
		for k, v := range tc.Countries {
			countries[k] = v
		}
		cp.Countries = countries
		out = append(out, cp)
	}
	asOf := t.lastSeen
	sortTracked(out, asOf)
	return out
}

// LastUpdate reports the instant of the most recent Update (zero before
// the first).
func (t *Tracker) LastUpdate() time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastSeen
}

// sortTracked orders campaigns for the operator table.
func sortTracked(out []Tracked, asOf time.Time) {
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		aAct, bAct := a.Active(asOf), b.Active(asOf)
		if aAct != bAct {
			return aAct
		}
		if aAct {
			if a.Size() != b.Size() {
				return a.Size() > b.Size()
			}
			return a.ID < b.ID
		}
		if !a.LastSeen.Equal(b.LastSeen) {
			return a.LastSeen.After(b.LastSeen)
		}
		return a.ID < b.ID
	})
}
