package campaign

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"exiot/internal/feed"
)

// botRecords synthesizes n IoT records in prefix sharing one signature.
func botRecords(prefix string, n int, ports map[uint16]int, tool, cc string) []feed.Record {
	out := make([]feed.Record, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, feed.Record{
			IP:          fmt.Sprintf("%s.%d.%d", prefix, i/200, i%200+1),
			Label:       feed.LabelIoT,
			TargetPorts: ports,
			Tool:        tool,
			CountryCode: cc,
		})
	}
	return out
}

func hour(h int) time.Time {
	return time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(h) * time.Hour)
}

func TestTrackerStableIDsAcrossRebuilds(t *testing.T) {
	tr := NewTracker()
	records := append(
		botRecords("10.0", 20, map[uint16]int{23: 180, 2323: 20}, "Mirai-like scanner", "CN"),
		botRecords("10.1", 8, map[uint16]int{8080: 150, 80: 50}, "", "BR")...)

	// Three consecutive snapshot rebuilds over the same feed — the
	// console's acceptance bar: IDs, order, and history must not churn.
	var want []Tracked
	for rebuild := 0; rebuild < 3; rebuild++ {
		tr.Update(Infer(records), hour(rebuild))
		got, _ := tr.Campaigns()
		if len(got) != 2 {
			t.Fatalf("rebuild %d: campaigns = %d, want 2", rebuild, len(got))
		}
		if got[0].ID != "C-000001" || got[1].ID != "C-000002" {
			t.Fatalf("rebuild %d: IDs churned: %s / %s", rebuild, got[0].ID, got[1].ID)
		}
		if rebuild > 0 {
			// Identical feed → identical table apart from LastSeen/Updates.
			for i := range got {
				if got[i].Signature.String() != want[i].Signature.String() || got[i].Size() != want[i].Size() {
					t.Fatalf("rebuild %d: campaign %s drifted", rebuild, got[i].ID)
				}
				// Unchanged state coalesces: history stays one point.
				if len(got[i].History) != 1 {
					t.Fatalf("rebuild %d: history grew to %d points on an idle feed", rebuild, len(got[i].History))
				}
			}
		}
		want = got
	}
	if want[0].FirstSeen != hour(0) || want[0].LastSeen != hour(2) || want[0].Updates != 3 {
		t.Errorf("lifetime bookkeeping wrong: %+v", want[0])
	}
}

func TestTrackerGrowthKeepsIdentity(t *testing.T) {
	tr := NewTracker()
	// A Mirai wave recruiting 5 → 15 → 40 bots: same campaign throughout,
	// even though the later membership dwarfs the earlier one.
	for i, n := range []int{5, 15, 40} {
		tr.Update(Infer(botRecords("20.0", n, map[uint16]int{23: 200}, "Mirai-like scanner", "CN")), hour(i))
	}
	got, _ := tr.Campaigns()
	if len(got) != 1 {
		t.Fatalf("campaigns = %d, want 1 (identity across growth)", len(got))
	}
	c := got[0]
	if c.ID != "C-000001" || c.Size() != 40 {
		t.Fatalf("campaign = %s size %d, want C-000001 size 40", c.ID, c.Size())
	}
	sizes := make([]int, len(c.History))
	for i, p := range c.History {
		sizes[i] = p.Size
	}
	if !reflect.DeepEqual(sizes, []int{5, 15, 40}) {
		t.Errorf("growth history = %v, want [5 15 40]", sizes)
	}
}

func TestTrackerBirthDecayRetire(t *testing.T) {
	tr := NewTracker()
	mirai := botRecords("30.0", 10, map[uint16]int{23: 200}, "Mirai-like scanner", "CN")
	web := botRecords("30.1", 6, map[uint16]int{8080: 200}, "", "BR")

	tr.Update(Infer(mirai), hour(0))
	tr.Update(Infer(append(append([]feed.Record{}, mirai...), web...)), hour(1))
	got, _ := tr.Campaigns()
	if len(got) != 2 {
		t.Fatalf("campaigns after birth = %d, want 2", len(got))
	}
	if got[0].ID != "C-000001" || got[1].ID != "C-000002" {
		t.Fatalf("birth order IDs = %s/%s", got[0].ID, got[1].ID)
	}
	if got[1].FirstSeen != hour(1) {
		t.Errorf("new campaign FirstSeen = %v, want hour 1", got[1].FirstSeen)
	}

	// The web campaign goes quiet: it decays (listed, inactive) until
	// the 14-day retire window closes. Last seen at hour 1, it is still
	// listed exactly 14 days later.
	tr.Update(Infer(mirai), hour(2))
	got, asOf := tr.Campaigns()
	if len(got) != 2 {
		t.Fatalf("campaigns after decay = %d, want 2 (decaying one still listed)", len(got))
	}
	if !got[0].Active(asOf) || got[0].ID != "C-000001" {
		t.Errorf("active campaign should sort first: %+v", got[0])
	}
	if got[1].Active(asOf) || got[1].ID != "C-000002" {
		t.Errorf("decaying campaign misreported: ID=%s active=%v", got[1].ID, got[1].Active(asOf))
	}

	tr.Update(Infer(mirai), hour(1).Add(retire))
	if got, _ = tr.Campaigns(); len(got) != 2 || got[1].ID != "C-000002" {
		t.Fatalf("campaign retired at exactly %v unseen: %d campaigns", retire, len(got))
	}
	// Just past the window it is dropped.
	tr.Update(Infer(mirai), hour(1).Add(retire+time.Second))
	got, _ = tr.Campaigns()
	if len(got) != 1 || got[0].ID != "C-000001" {
		t.Fatalf("retire failed: %d campaigns, first %s", len(got), got[0].ID)
	}

	// A campaign reborn after retirement is a new identity.
	tr.Update(Infer(append(append([]feed.Record{}, mirai...), web...)), hour(2).Add(retire))
	got, _ = tr.Campaigns()
	if len(got) != 2 || got[1].ID != "C-000003" {
		t.Fatalf("reborn campaign should draw a fresh ID: %+v", got)
	}
}

func TestTrackerDeterminism(t *testing.T) {
	records := append(
		botRecords("40.0", 12, map[uint16]int{23: 160, 2323: 40}, "Mirai-like scanner", "CN"),
		append(
			botRecords("40.1", 7, map[uint16]int{8080: 120, 80: 80}, "", "IN"),
			botRecords("40.2", 5, map[uint16]int{5555: 200}, "", "BR")...)...)

	run := func() []Tracked {
		tr := NewTracker()
		for i := 0; i < 4; i++ {
			tr.Update(Infer(records), hour(i))
		}
		got, _ := tr.Campaigns()
		return got
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same updates produced different tracker states:\n%+v\nvs\n%+v", a, b)
	}
}

func TestTrackerSplitKeepsOldestIdentity(t *testing.T) {
	tr := NewTracker()
	all := botRecords("50.0", 20, map[uint16]int{23: 200}, "", "CN")
	tr.Update(Infer(all), hour(0))

	// Half the botnet retools to a distinguishable signature: the larger
	// continuation keeps C-000001, the splinter is born as C-000002.
	var next []feed.Record
	for i, rec := range all {
		if i >= 12 {
			rec.TargetPorts = map[uint16]int{5555: 150, 5556: 50}
		}
		next = append(next, rec)
	}
	tr.Update(Infer(next), hour(1))
	got, _ := tr.Campaigns()
	if len(got) != 2 {
		t.Fatalf("campaigns after split = %d, want 2", len(got))
	}
	if got[0].ID != "C-000001" || got[0].Size() != 12 {
		t.Errorf("continuation = %s size %d, want C-000001 size 12", got[0].ID, got[0].Size())
	}
	if got[1].ID != "C-000002" || got[1].Size() != 8 {
		t.Errorf("splinter = %s size %d, want C-000002 size 8", got[1].ID, got[1].Size())
	}
}

func TestTrackerHistoryBounded(t *testing.T) {
	tr := NewTracker()
	const updates = maxHistory + 4
	for i := 0; i < updates; i++ {
		// Size changes every update so no coalescing happens.
		tr.Update(Infer(botRecords("60.0", 3+i, map[uint16]int{23: 200}, "", "CN")), hour(i))
	}
	got, _ := tr.Campaigns()
	if len(got) != 1 {
		t.Fatalf("campaigns = %d", len(got))
	}
	h := got[0].History
	if len(h) != 336 {
		t.Fatalf("history = %d points, want bounded to 336", len(h))
	}
	if h[len(h)-1].Size != 3+updates-1 || h[0].Size != 3+updates-336 {
		t.Errorf("history window wrong: first %d last %d, want %d..%d", h[0].Size, h[len(h)-1].Size, 3+updates-336, 3+updates-1)
	}
}

// TestTrackerHistoryPointsOnChange pins what a history point is: one per
// update that changes the campaign's size, records or signature. Idle
// updates add none, whatever time passes between them, and the 337th
// distinct point drops the oldest.
func TestTrackerHistoryPointsOnChange(t *testing.T) {
	tr := NewTracker()
	bots := func(n int) []Campaign { return Infer(botRecords("70.0", n, map[uint16]int{23: 200}, "", "CN")) }
	history := func() []HistoryPoint {
		t.Helper()
		got, _ := tr.Campaigns()
		if len(got) != 1 {
			t.Fatalf("campaigns = %d, want 1", len(got))
		}
		return got[0].History
	}
	tr.Update(bots(3), hour(0))
	for i := 1; i <= 5; i++ {
		tr.Update(bots(3), hour(24*i))
	}
	if h := history(); len(h) != 1 || !h[0].At.Equal(hour(0)) {
		t.Fatalf("five idle updates over five days left %d points", len(h))
	}
	for n := 4; n < 3+maxHistory; n++ {
		tr.Update(bots(n), hour(200+n))
	}
	if h := history(); len(h) != maxHistory || h[0].Size != 3 || h[len(h)-1].Size != 2+maxHistory {
		t.Fatalf("%d distinct updates: %d points, sizes %d..%d", maxHistory, len(h), h[0].Size, h[len(h)-1].Size)
	}
	tr.Update(bots(3+maxHistory), hour(300+maxHistory))
	if h := history(); len(h) != maxHistory || h[0].Size != 4 || h[len(h)-1].Size != 3+maxHistory {
		t.Fatalf("the %dth distinct point: %d points, sizes %d..%d, want the oldest (3) dropped", maxHistory+1, len(h), h[0].Size, h[len(h)-1].Size)
	}
}

// TestTrackerTableOutlivesUpdates holds a table Campaigns returned while
// later updates grow, shrink and retire its campaigns and fill their
// histories past maxHistory: the table shares its lists and maps with the
// tracker, so it must read afterwards exactly as it did when returned.
func TestTrackerTableOutlivesUpdates(t *testing.T) {
	tr := NewTracker()
	bots := func(n int) []Campaign { return Infer(botRecords("80.0", n, map[uint16]int{23: 200}, "", "CN")) }
	for n := 3; n < 3+maxHistory-1; n++ {
		tr.Update(bots(n), hour(n))
	}
	held, asOf := tr.Campaigns()
	want := make([]Tracked, len(held))
	for i, tc := range held {
		want[i] = tc
		want[i].IPs = append([]string(nil), tc.IPs...)
		want[i].History = append([]HistoryPoint(nil), tc.History...)
		want[i].Countries = map[string]int{}
		for k, v := range tc.Countries {
			want[i].Countries[k] = v
		}
	}
	for n := 3 + maxHistory; n < 3+maxHistory+8; n++ {
		tr.Update(bots(n), hour(n))
	}
	tr.Update(bots(4), hour(1000))
	tr.Update(nil, hour(1000).Add(retire+time.Hour))
	if now, _ := tr.Campaigns(); len(now) != 0 {
		t.Fatalf("%d campaigns left after the retire window", len(now))
	}
	if !reflect.DeepEqual(held, want) {
		t.Errorf("a held table changed under later updates:\n got  %+v\n want %+v", held, want)
	}
	if !asOf.Equal(hour(maxHistory + 1)) {
		t.Errorf("as of %v, want the last update's %v", asOf, hour(maxHistory+1))
	}
}
