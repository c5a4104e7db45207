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

// runDetectors replays hours the way an n-node cluster does: detector i
// sees, in order, exactly the packets where ShardIndex(src, n) == i
// (what `flowsampler -shard i/n` keeps), EndHour closes every hour and
// Flush the run. It returns the events of each barrier (one slice per hour,
// plus the flush) with flow events unioned, and the summed stats. With
// merge, per-second reports reach a barrier through ReportSum, as in
// Aggregator.mergeHour; without it (the serial reference, n = 1) as the
// detector emitted them.
func runDetectors(t *testing.T, cfg Config, n int, merge bool, hours [][]packet.Packet, bounds []time.Time, flushAt time.Time) ([][]Event, Stats) {
	barriers := make([][]Event, len(hours)+1)
	bi := 0
	var sum ReportSum
	dets := make([]*Detector, n)
	for i := range dets {
		dets[i] = NewDetector(cfg, func(e Event) {
			if merge && e.Kind == EventSecondReport {
				sum.Add(e.Report)
				return
			}
			barriers[bi] = append(barriers[bi], e)
		})
	}
	closeBarrier := func() {
		sum.Drain(func(rep *SecondReport) {
			barriers[bi] = append(barriers[bi], Event{Kind: EventSecondReport, Report: rep})
		})
		bi++
	}
	for hi, pkts := range hours {
		for pi := range pkts {
			si := ShardIndex(pkts[pi].SrcIP, n)
			if si < 0 || si >= n {
				t.Fatalf("ShardIndex(%v, %d) = %d: not a partition", pkts[pi].SrcIP, n, si)
			}
			dets[si].Process(&pkts[pi])
		}
		for _, d := range dets {
			d.EndHour(bounds[hi])
		}
		closeBarrier()
	}
	var stats Stats
	for _, d := range dets {
		d.Flush(flushAt)
		st := d.Stats()
		stats.Processed += st.Processed
		stats.Backscatter += st.Backscatter
		stats.ScannersFound += st.ScannersFound
		stats.SamplesEmitted += st.SamplesEmitted
		stats.FlowsEnded += st.FlowsEnded
		stats.ActiveSources += st.ActiveSources
	}
	closeBarrier()
	return barriers, stats
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
		hour := w.Start().Add(time.Duration(i) * time.Hour)
		hours[i] = w.GenerateHour(hour)
		bounds[i] = hour.Add(time.Hour)
	}
	return hours, bounds
}

// syntheticHours is a hand-built two-hour stream with the cases a source
// partition can get wrong: cross-source timestamp ties, a source that
// goes quiet early, a counting flow that expires and restarts, eighteen
// minutes in which nothing arrives (split by source, seconds inside the
// hour that no partition reports: ReportSum must zero-fill them), flows
// that end at the hourly sweep and one that survives it.
func syntheticHours() (Config, [][]packet.Packet, []time.Time) {
	cfg := Config{
		DetectionThreshold: 10,
		SampleSize:         5,
		MinDuration:        -1,
		expiryGap:          30 * time.Second,
		flowEndGap:         10 * time.Minute,
	}
	var h0 []packet.Packet
	for i := 0; i < 40; i++ {
		// Identical timestamps across sources; the last goes quiet halfway.
		ts := t0.Add(time.Duration(i) * 700 * time.Millisecond)
		for si, src := range []string{"203.0.113.9", "198.51.100.4", "192.0.2.77", "203.0.113.10"} {
			if si < 3 || i < 20 {
				h0 = append(h0, synPacket(packet.MustParseIP(src), ts, 23))
			}
		}
	}
	// Six packets, a pause longer than the expiry gap, then a walk that
	// restarts from one and crosses the threshold on its own.
	restart := packet.MustParseIP("198.51.100.200")
	h0 = append(h0, steadyStream(restart, t0.Add(2*time.Second), 6, time.Second)...)
	h0 = append(h0, steadyStream(restart, t0.Add(70*time.Second), 12, time.Second)...)
	// After the silence, a scanner whose flow (like all of the above) is
	// idle past the flow-end gap at the hour's sweep, and one the sweep must
	// leave alive: it carries into hour 1.
	h0 = append(h0, steadyStream(packet.MustParseIP("192.0.2.150"), t0.Add(20*time.Minute), 15, time.Second)...)
	survivor := packet.MustParseIP("203.0.113.201")
	h0 = append(h0, steadyStream(survivor, t0.Add(55*time.Minute), 15, time.Second)...)
	slices.SortStableFunc(h0, func(a, b packet.Packet) int { return a.Timestamp.Compare(b.Timestamp) })
	h1 := steadyStream(survivor, t0.Add(time.Hour+5*time.Second), 3, time.Second)
	return cfg, [][]packet.Packet{h0, h1}, []time.Time{t0.Add(time.Hour), t0.Add(2 * time.Hour)}
}

// TestPartitionedDetectorsMatchSerial is the property the cluster rests
// on: the TRW walk is purely per-source state, so N detectors that each
// own a ShardIndex slice of the source space emit, hour by hour, the same
// event *set* as one detector over the whole telescope — the same flow
// events, the same report for every second once ReportSum has summed the
// partitions and zero-filled the seconds none of them saw, and the same
// stats. Emission order is deliberately not compared: consumers order
// events by content (the pipeline's canonical order).
func TestPartitionedDetectorsMatchSerial(t *testing.T) {
	type stream struct {
		cfg    Config
		hours  [][]packet.Packet
		bounds []time.Time
	}
	streams := map[string]stream{}
	for _, seed := range []int64{7, 19} {
		hours, bounds := simHours(seed, 3)
		streams[fmt.Sprintf("simnet-seed-%d", seed)] = stream{hours: hours, bounds: bounds}
	}
	cfg, hours, bounds := syntheticHours()
	streams["synthetic"] = stream{cfg, hours, bounds}

	for name, s := range streams {
		t.Run(name, func(t *testing.T) {
			flushAt := s.bounds[len(s.bounds)-1].Add(time.Hour)
			want, wantStats := runDetectors(t, s.cfg, 1, false, s.hours, s.bounds, flushAt)
			if ws := toEventSet(t, want[0]); len(ws.flows) == 0 || len(ws.reports) == 0 || wantStats.FlowsEnded == 0 {
				t.Fatalf("serial run: %d flow events and %d reports in hour 0, %d flows ended", len(ws.flows), len(ws.reports), wantStats.FlowsEnded)
			}
			for _, n := range []int{1, 2, 3, 8} {
				got, gotStats := runDetectors(t, s.cfg, n, true, s.hours, s.bounds, flushAt)
				requireSameEventSets(t, fmt.Sprintf("n=%d", n), got, want)
				if gotStats != wantStats {
					t.Errorf("n=%d: stats = %+v, want %+v", n, gotStats, wantStats)
				}
			}
		})
	}
}
