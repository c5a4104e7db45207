package trw

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"exiot/internal/packet"
	"exiot/internal/simnet"
)

// runSerial replays hours through a serial Detector the way the pipeline
// does: Process every packet, EndHour at each hour boundary, Flush at the
// end. Returns the events of each barrier (one slice per hour, plus the
// flush) and final stats.
func runSerial(cfg Config, hours [][]packet.Packet, bounds []time.Time, flushAt time.Time) ([][]Event, Stats) {
	barriers := make([][]Event, len(hours)+1)
	bi := 0
	d := NewDetector(cfg, func(e Event) { barriers[bi] = append(barriers[bi], e) })
	for hi := range hours {
		for i := range hours[hi] {
			d.Process(&hours[hi][i])
		}
		d.EndHour(bounds[hi])
		bi++
	}
	d.Flush(flushAt)
	return barriers, d.Stats()
}

// runSharded replays the same hours through a ShardedDetector.
func runSharded(cfg Config, workers int, hours [][]packet.Packet, bounds []time.Time, flushAt time.Time) ([][]Event, Stats) {
	barriers := make([][]Event, len(hours)+1)
	bi := 0
	d := NewShardedDetector(cfg, workers, func(e Event) { barriers[bi] = append(barriers[bi], e) })
	defer d.Close()
	for hi := range hours {
		d.ProcessBatch(hours[hi])
		d.EndHour(bounds[hi])
		bi++
	}
	d.Flush(flushAt)
	return barriers, d.Stats()
}

// eventSet is one barrier's events with the emission order factored out:
// flow events as a sorted multiset, reports keyed by second.
type eventSet struct {
	flows   []Event
	reports map[int64]SecondReport
}

func toEventSet(t *testing.T, events []Event) eventSet {
	t.Helper()
	set := eventSet{reports: make(map[int64]SecondReport)}
	for _, e := range events {
		if e.Kind != EventSecondReport {
			set.flows = append(set.flows, e)
			continue
		}
		sec := e.Report.Second.UnixNano()
		if _, dup := set.reports[sec]; dup {
			t.Fatalf("second %v reported twice in one barrier", e.Report.Second)
		}
		set.reports[sec] = *e.Report
	}
	slices.SortFunc(set.flows, func(a, b Event) int {
		return cmp.Or(
			cmp.Compare(a.Kind, b.Kind),
			cmp.Compare(a.IP, b.IP),
			a.FirstSeen.Compare(b.FirstSeen),
			a.DetectedAt.Compare(b.DetectedAt),
			a.LastSeen.Compare(b.LastSeen),
		)
	})
	return set
}

// requireSameEventSets asserts that two runs emitted, barrier by barrier,
// the same flow events (as a multiset) and the same report for every
// second.
func requireSameEventSets(t *testing.T, label string, got, want [][]Event) {
	t.Helper()
	for bi := range want {
		g, w := toEventSet(t, got[bi]), toEventSet(t, want[bi])
		if !reflect.DeepEqual(g.flows, w.flows) {
			t.Fatalf("%s: barrier %d flow events differ (got %d, want %d)", label, bi, len(g.flows), len(w.flows))
		}
		if len(g.reports) != len(w.reports) {
			t.Fatalf("%s: barrier %d reports %d seconds, want %d", label, bi, len(g.reports), len(w.reports))
		}
		for sec, wr := range w.reports {
			if gr, ok := g.reports[sec]; !ok || !reflect.DeepEqual(gr, wr) {
				t.Fatalf("%s: barrier %d second %v:\n got  %+v\n want %+v", label, bi, wr.Second, gr, wr)
			}
		}
	}
}

// simHours generates telescope traffic for n hours of a deterministic
// simulated world.
func simHours(seed int64, n int) ([][]packet.Packet, []time.Time) {
	cfg := simnet.DefaultConfig(seed)
	cfg.NumInfected = 80
	cfg.NumNonIoT = 20
	cfg.NumResearch = 3
	cfg.NumMisconfig = 15
	cfg.NumBackscat = 6
	cfg.MaxPacketsPerHostHour = 600
	w := simnet.NewWorld(cfg)
	hours := make([][]packet.Packet, n)
	bounds := make([]time.Time, n)
	for i := 0; i < n; i++ {
		hour := cfg.Start.Add(time.Duration(i) * time.Hour)
		hours[i] = w.GenerateHour(hour)
		bounds[i] = hour.Add(time.Hour)
	}
	return hours, bounds
}

// TestShardedMatchesSerialSimnet is the core equivalence property: for
// realistic telescope traffic, the sharded detector emits at every
// barrier the same event *set* as the serial detector — the same flow
// events, the same summed report for every second, the same stats —
// regardless of shard count. Emission order is deliberately not compared:
// the detector's consumers order events by content (see the pipeline's
// canonical order), so any order the shards surface in is correct.
func TestShardedMatchesSerialSimnet(t *testing.T) {
	hours, bounds := simHours(7, 4)
	var total int
	for _, h := range hours {
		total += len(h)
	}
	if total == 0 {
		t.Fatal("simnet generated no packets")
	}
	flushAt := bounds[len(bounds)-1]

	want, wantStats := runSerial(Config{}, hours, bounds, flushAt)
	if len(want[0]) == 0 {
		t.Fatal("serial detector emitted no events")
	}

	for _, workers := range []int{1, 3, 8} {
		got, gotStats := runSharded(Config{}, workers, hours, bounds, flushAt)
		requireSameEventSets(t, fmt.Sprintf("workers=%d", workers), got, want)
		if gotStats != wantStats {
			t.Errorf("workers=%d: stats = %+v, want %+v", workers, gotStats, wantStats)
		}
	}
}

// TestShardedMatchesSerialSynthetic checks the merge on a hand-built
// stream with cross-source timestamp ties, sources that expire mid-run,
// and a shard that goes quiet before the end of the hour (its report run
// ends early; the seconds it missed must still sum to the serial totals).
func TestShardedMatchesSerialSynthetic(t *testing.T) {
	cfg := Config{DetectionThreshold: 10, SampleSize: 5, MinDuration: -1}
	srcs := []packet.IP{
		packet.MustParseIP("203.0.113.9"),
		packet.MustParseIP("198.51.100.4"),
		packet.MustParseIP("192.0.2.77"),
		packet.MustParseIP("203.0.113.10"),
	}
	var pkts []packet.Packet
	for i := 0; i < 40; i++ {
		ts := t0.Add(time.Duration(i) * 700 * time.Millisecond)
		for si, src := range srcs {
			// The last source goes quiet halfway through.
			if si == 3 && i >= 20 {
				continue
			}
			// Identical timestamps across sources.
			pkts = append(pkts, synPacket(src, ts, 23))
		}
	}
	hours := [][]packet.Packet{pkts}
	bounds := []time.Time{t0.Add(time.Hour)}
	flushAt := bounds[0].Add(time.Hour)

	want, wantStats := runSerial(cfg, hours, bounds, flushAt)
	for _, workers := range []int{2, 4, 16} {
		got, gotStats := runSharded(cfg, workers, hours, bounds, flushAt)
		requireSameEventSets(t, fmt.Sprintf("workers=%d", workers), got, want)
		if gotStats != wantStats {
			t.Errorf("workers=%d: stats = %+v, want %+v", workers, gotStats, wantStats)
		}
	}
}

// TestShardedEmpty checks lifecycle calls with no input.
func TestShardedEmpty(t *testing.T) {
	var events []Event
	d := NewShardedDetector(Config{}, 4, func(e Event) { events = append(events, e) })
	d.ProcessBatch(nil)
	d.EndHour(t0)
	d.Flush(t0.Add(time.Hour))
	if st := d.Stats(); st.Processed != 0 {
		t.Errorf("Processed = %d, want 0", st.Processed)
	}
	d.Close()
	d.Close() // idempotent
	if len(events) != 0 {
		t.Errorf("got %d events from empty input, want 0", len(events))
	}
}

// TestShardedDefaultsToGOMAXPROCS checks worker-count defaulting.
func TestShardedDefaultsToGOMAXPROCS(t *testing.T) {
	d := NewShardedDetector(Config{}, 0, func(Event) {})
	defer d.Close()
	if d.NumShards() < 1 {
		t.Fatalf("NumShards = %d, want >= 1", d.NumShards())
	}
	d2 := NewShardedDetector(Config{}, 100000, func(Event) {})
	defer d2.Close()
	if d2.NumShards() != 256 {
		t.Fatalf("NumShards = %d, want capped at 256", d2.NumShards())
	}
}
