package trw

// The map-based detector this package shipped before the arena flow
// table, kept verbatim as a test-only reference implementation. The
// property test below replays random packet streams through both and
// demands identical event streams and stats — the proof that the arena
// table, int64 clocks, epoch sweeps, and pooled sample buffers changed
// the memory layout and nothing else.

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"exiot/internal/packet"
)

// refSrcState is the old per-source entry (heap pointer + time.Time).
type refSrcState struct {
	first     time.Time
	last      time.Time
	count     int
	isScanner bool

	detectedAt time.Time
	sampling   bool
	sample     []packet.Packet
}

// refDetector is the pre-arena Detector, logic copied unchanged.
type refDetector struct {
	cfg   Config
	emit  func(Event)
	state map[packet.IP]*refSrcState
	stats Stats

	curSecond time.Time
	report    SecondReport
}

func newRefDetector(cfg Config, emit func(Event)) *refDetector {
	return &refDetector{
		cfg:   cfg.withDefaults(),
		emit:  emit,
		state: make(map[packet.IP]*refSrcState, 4096),
	}
}

func (d *refDetector) Process(p *packet.Packet) {
	d.tickSecond(p.Timestamp)
	d.stats.Processed++
	d.report.Total++
	switch p.Proto {
	case packet.TCP:
		d.report.TCP++
	case packet.UDP:
		d.report.UDP++
	case packet.ICMP:
		d.report.ICMP++
	}

	if p.IsBackscatter() {
		d.stats.Backscatter++
		d.report.Backscatter++
		return
	}
	if d.report.PortPackets == nil {
		d.report.PortPackets = make(map[uint16]int, 64)
	}
	d.report.PortPackets[p.DstPort]++

	st, ok := d.state[p.SrcIP]
	if !ok {
		st = &refSrcState{first: p.Timestamp, last: p.Timestamp, count: 1}
		d.state[p.SrcIP] = st
		return
	}

	gap := p.Timestamp.Sub(st.last)
	st.last = p.Timestamp

	if st.isScanner {
		if st.sampling {
			st.sample = append(st.sample, *p)
			if len(st.sample) >= d.cfg.SampleSize {
				st.sampling = false
				d.stats.SamplesEmitted++
				d.emit(Event{
					Kind:       EventSample,
					IP:         p.SrcIP,
					FirstSeen:  st.first,
					DetectedAt: st.detectedAt,
					Sample:     st.sample,
				})
				st.sample = nil
			}
		}
		return
	}

	if gap > d.cfg.expiryGap {
		st.first = p.Timestamp
		st.count = 1
		return
	}
	st.count++
	if st.count >= d.cfg.DetectionThreshold &&
		p.Timestamp.Sub(st.first) >= d.cfg.MinDuration {
		st.isScanner = true
		st.detectedAt = p.Timestamp
		st.count = 0
		st.sampling = true
		st.sample = make([]packet.Packet, 0, d.cfg.SampleSize)
		d.stats.ScannersFound++
		d.report.NewScanFlows++
		d.emit(Event{
			Kind:       EventScannerDetected,
			IP:         p.SrcIP,
			FirstSeen:  st.first,
			DetectedAt: st.detectedAt,
		})
	}
}

func (d *refDetector) tickSecond(ts time.Time) {
	sec := ts.Truncate(time.Second)
	if d.curSecond.IsZero() {
		d.curSecond = sec
		d.report = SecondReport{Second: sec}
		return
	}
	for d.curSecond.Before(sec) {
		rep := d.report
		d.emit(Event{Kind: EventSecondReport, Report: &rep})
		d.curSecond = d.curSecond.Add(time.Second)
		d.report = SecondReport{Second: d.curSecond}
	}
}

func (d *refDetector) EndHour(now time.Time) {
	// Mirror the arena detector: the in-flight second flushes at the hour
	// barrier so each hour's report stream is self-contained.
	if !d.curSecond.IsZero() {
		rep := d.report
		d.emit(Event{Kind: EventSecondReport, Report: &rep})
		d.curSecond = time.Time{}
		d.report = SecondReport{}
	}
	var ended []packet.IP
	for ip, st := range d.state {
		if now.Sub(st.last) >= d.cfg.flowEndGap {
			ended = append(ended, ip)
		}
	}
	sort.Slice(ended, func(i, j int) bool { return ended[i] < ended[j] })
	for _, ip := range ended {
		st := d.state[ip]
		if st.isScanner {
			if st.sampling && len(st.sample) > 0 {
				d.stats.SamplesEmitted++
				d.emit(Event{
					Kind:       EventSample,
					IP:         ip,
					FirstSeen:  st.first,
					DetectedAt: st.detectedAt,
					Sample:     st.sample,
				})
			}
			d.stats.FlowsEnded++
			d.emit(Event{
				Kind:       EventFlowEnd,
				IP:         ip,
				FirstSeen:  st.first,
				DetectedAt: st.detectedAt,
				LastSeen:   st.last,
			})
		}
		delete(d.state, ip)
	}
}

func (d *refDetector) AdvanceClock(ts time.Time) { d.tickSecond(ts) }

func (d *refDetector) Flush(now time.Time) {
	d.EndHour(now.Add(24 * time.Hour))
}

func (d *refDetector) Stats() Stats {
	s := d.stats
	s.ActiveSources = len(d.state)
	return s
}

// --- equivalence harness ---

// capturedEvent is an Event normalized for comparison: times flattened to
// unix nanos (the arena detector reconstructs UTC time.Time values whose
// instants, not struct internals, must match) and samples deep-copied at
// emit time (both detectors recycle or reuse buffers afterwards).
type capturedEvent struct {
	kind                  EventKind
	ip                    packet.IP
	first, detected, last int64
	sample                []packet.Packet
	report                SecondReport
}

func capture(dst *[]capturedEvent) func(Event) {
	return func(e Event) {
		ce := capturedEvent{kind: e.Kind, ip: e.IP}
		if e.Kind == EventSecondReport {
			ce.report = *e.Report
			if e.Report.PortPackets != nil {
				ce.report.PortPackets = make(map[uint16]int, len(e.Report.PortPackets))
				for k, v := range e.Report.PortPackets {
					ce.report.PortPackets[k] = v
				}
			}
		} else {
			ce.first = e.FirstSeen.UnixNano()
			ce.detected = e.DetectedAt.UnixNano()
			ce.last = e.LastSeen.UnixNano()
			if e.Sample != nil {
				ce.sample = append([]packet.Packet(nil), e.Sample...)
			}
		}
		*dst = append(*dst, ce)
	}
}

func diffCaptured(t *testing.T, seed int64, got, want []capturedEvent) {
	t.Helper()
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		g, w := got[i], want[i]
		if g.kind != w.kind || g.ip != w.ip || g.first != w.first ||
			g.detected != w.detected || g.last != w.last {
			t.Fatalf("seed %d: event %d differs:\n got %+v\nwant %+v", seed, i, g, w)
		}
		if len(g.sample) != len(w.sample) {
			t.Fatalf("seed %d: event %d sample len %d, want %d", seed, i, len(g.sample), len(w.sample))
		}
		for j := range g.sample {
			if g.sample[j] != w.sample[j] {
				t.Fatalf("seed %d: event %d sample packet %d differs", seed, i, j)
			}
		}
		if g.kind == EventSecondReport {
			if !g.report.Second.Equal(w.report.Second) || g.report.Total != w.report.Total ||
				g.report.TCP != w.report.TCP || g.report.UDP != w.report.UDP ||
				g.report.ICMP != w.report.ICMP || g.report.Backscatter != w.report.Backscatter ||
				g.report.NewScanFlows != w.report.NewScanFlows {
				t.Fatalf("seed %d: event %d report differs:\n got %+v\nwant %+v", seed, i, g.report, w.report)
			}
			if len(g.report.PortPackets) != len(w.report.PortPackets) {
				t.Fatalf("seed %d: event %d PortPackets size %d, want %d (nil-ness must match too: %v vs %v)",
					seed, i, len(g.report.PortPackets), len(w.report.PortPackets),
					g.report.PortPackets == nil, w.report.PortPackets == nil)
			}
			if (g.report.PortPackets == nil) != (w.report.PortPackets == nil) {
				t.Fatalf("seed %d: event %d PortPackets nil-ness differs", seed, i)
			}
			for port, cnt := range w.report.PortPackets {
				if g.report.PortPackets[port] != cnt {
					t.Fatalf("seed %d: event %d port %d = %d, want %d", seed, i,
						port, g.report.PortPackets[port], cnt)
				}
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("seed %d: %d events, want %d (first %d identical)", seed, len(got), len(want), n)
	}
}

// TestFlowTableMatchesReference replays random packet streams — random
// source pools, inter-arrival gaps straddling the expiry gap, second and
// hour boundaries, backscatter, mid-sample flow deaths, walk restarts —
// through the arena detector and the reference map detector, demanding
// identical event streams and stats.
func TestFlowTableMatchesReference(t *testing.T) {
	cfgs := []Config{
		{}, // paper operating point
		{DetectionThreshold: 5, SampleSize: 8, expiryGap: 40 * time.Second,
			MinDuration: 3 * time.Second, flowEndGap: 10 * time.Minute},
		{DetectionThreshold: 3, SampleSize: 4, expiryGap: 10 * time.Second,
			MinDuration: -1, flowEndGap: 2 * time.Minute},
	}
	for ci, cfg := range cfgs {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed + int64(ci)*1000))
			var gotEvents, wantEvents []capturedEvent
			got := NewDetector(cfg, capture(&gotEvents))
			want := newRefDetector(cfg, capture(&wantEvents))

			// A pool of sources; a few are hot (scanner-like rates).
			srcs := make([]packet.IP, 40)
			for i := range srcs {
				srcs[i] = packet.IP(rng.Uint32())
			}
			ts := time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(rng.Intn(3600)) * time.Second)
			hourMark := ts.Truncate(time.Hour).Add(time.Hour)

			for i := 0; i < 4000; i++ {
				src := srcs[rng.Intn(len(srcs))]
				if rng.Intn(3) == 0 {
					src = srcs[rng.Intn(4)] // hot subset
				}
				p := packet.Packet{
					Timestamp: ts,
					Proto:     packet.TCP,
					SrcIP:     src,
					DstIP:     packet.MakeIP(10, 0, byte(rng.Intn(256)), byte(rng.Intn(256))),
					SrcPort:   uint16(1024 + rng.Intn(60000)),
					DstPort:   [...]uint16{23, 2323, 80, 8080, 5555}[rng.Intn(5)],
					Flags:     packet.FlagSYN,
					TTL:       64,
				}
				switch rng.Intn(12) {
				case 0: // backscatter
					p.Flags = packet.FlagSYN | packet.FlagACK
				case 1: // UDP
					p.Proto = packet.UDP
					p.Flags = 0
				case 2: // ICMP echo request (not backscatter)
					p.Proto = packet.ICMP
					p.ICMPType = packet.ICMPEchoRequest
					p.SrcPort, p.DstPort = 0, 0
				}
				p.Normalize()
				p.Timestamp = ts // Normalize leaves it, but be explicit
				got.Process(&p)
				want.Process(&p)

				// Advance time: mostly sub-second, sometimes multi-second
				// (past the small-config expiry gaps), rarely a long idle
				// stretch that crosses hour boundaries and flow-end sweeps.
				switch j := rng.Intn(200); {
				case j == 0:
					ts = ts.Add(20 * time.Minute)
				case j < 12:
					ts = ts.Add(time.Duration(rng.Int63n(int64(90 * time.Second))))
				default:
					ts = ts.Add(time.Duration(rng.Int63n(int64(800 * time.Millisecond))))
				}
				for !ts.Before(hourMark) {
					got.EndHour(hourMark)
					want.EndHour(hourMark)
					hourMark = hourMark.Add(time.Hour)
				}
			}
			got.Flush(ts)
			want.Flush(ts)

			diffCaptured(t, seed, gotEvents, wantEvents)
			if gs, ws := got.Stats(), want.Stats(); gs != ws {
				t.Fatalf("cfg %d seed %d: stats %+v, want %+v", ci, seed, gs, ws)
			}
		}
	}
}

// TestFlowTableReferenceRestartResume pins the walk-restart edge exactly:
// a source that pauses past the expiry gap must restart its walk in both
// implementations, and a detector reused across a Flush must behave like
// a fresh reference.
func TestFlowTableReferenceRestartResume(t *testing.T) {
	cfg := Config{DetectionThreshold: 4, SampleSize: 3, expiryGap: 30 * time.Second,
		MinDuration: -1, flowEndGap: 5 * time.Minute}
	var gotEvents, wantEvents []capturedEvent
	got := NewDetector(cfg, capture(&gotEvents))
	want := newRefDetector(cfg, capture(&wantEvents))

	src := packet.MustParseIP("198.18.0.7")
	ts := time.Date(2021, 6, 1, 12, 0, 0, 0, time.UTC)
	feed := func(n int, gap time.Duration) {
		for i := 0; i < n; i++ {
			p := synPacket(src, ts, 23)
			got.Process(&p)
			q := synPacket(src, ts, 23)
			want.Process(&q)
			ts = ts.Add(gap)
		}
	}
	feed(3, time.Second)           // below threshold
	ts = ts.Add(2 * time.Minute)   // > expiry gap: restart
	feed(4, time.Second)           // detect on restart, sample 3
	feed(2, time.Second)           // post-sample liveness
	got.EndHour(ts.Add(time.Hour)) // idle > flow-end gap: end the flow
	want.EndHour(ts.Add(time.Hour))
	feed(5, time.Second) // the source returns: fresh walk, re-detect
	got.Flush(ts)
	want.Flush(ts)

	diffCaptured(t, -1, gotEvents, wantEvents)
	if gs, ws := got.Stats(), want.Stats(); gs != ws {
		t.Fatalf("stats %+v, want %+v", gs, ws)
	}
	if gs := got.Stats(); gs.ScannersFound != 2 || gs.FlowsEnded != 2 {
		t.Fatalf("scenario should re-detect after flow end: %+v", gs)
	}
}
