package trw

import (
	"testing"
	"time"

	"exiot/internal/packet"
)

var t0 = time.Date(2020, 12, 9, 7, 0, 0, 0, time.UTC)

// synPacket builds a SYN probe from src at ts.
func synPacket(src packet.IP, ts time.Time, dstPort uint16) packet.Packet {
	p := packet.Packet{
		Timestamp: ts,
		Proto:     packet.TCP,
		SrcIP:     src,
		DstIP:     packet.MustParseIP("10.1.2.3"),
		SrcPort:   40000,
		DstPort:   dstPort,
		Flags:     packet.FlagSYN,
		TTL:       48,
	}
	p.Normalize()
	return p
}

// collect runs a detector over a packet sequence and gathers events.
func collect(cfg Config, pkts []packet.Packet) ([]Event, *Detector) {
	var events []Event
	d := NewDetector(cfg, func(e Event) { events = append(events, e) })
	for i := range pkts {
		d.Process(&pkts[i])
	}
	return events, d
}

// steadyStream emits n packets from src spaced by gap.
func steadyStream(src packet.IP, start time.Time, n int, gap time.Duration) []packet.Packet {
	out := make([]packet.Packet, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, synPacket(src, start.Add(time.Duration(i)*gap), 23))
	}
	return out
}

func eventsOf(events []Event, kind EventKind) []Event {
	var out []Event
	for _, e := range events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

func TestDetectionAtThreshold(t *testing.T) {
	src := packet.MustParseIP("203.0.113.5")
	// 100 packets over 99 seconds: crosses both count and duration rules.
	pkts := steadyStream(src, t0, 100, time.Second)
	events, d := collect(Default(), pkts)
	det := eventsOf(events, EventScannerDetected)
	if len(det) != 1 {
		t.Fatalf("detections = %d, want 1", len(det))
	}
	if det[0].IP != src {
		t.Errorf("detected %v, want %v", det[0].IP, src)
	}
	if !det[0].FirstSeen.Equal(t0) {
		t.Errorf("FirstSeen = %v, want %v", det[0].FirstSeen, t0)
	}
	if got := d.Stats().ScannersFound; got != 1 {
		t.Errorf("ScannersFound = %d", got)
	}
}

func TestNoDetectionBelowThreshold(t *testing.T) {
	src := packet.MustParseIP("203.0.113.6")
	pkts := steadyStream(src, t0, 99, time.Second)
	events, _ := collect(Default(), pkts)
	if n := len(eventsOf(events, EventScannerDetected)); n != 0 {
		t.Errorf("detections = %d, want 0 below threshold", n)
	}
}

func TestShortBurstExcludedByDuration(t *testing.T) {
	// Misconfiguration burst: 500 packets in 40 s. Count passes, duration
	// rule must exclude it.
	src := packet.MustParseIP("203.0.113.7")
	pkts := steadyStream(src, t0, 500, 80*time.Millisecond)
	events, _ := collect(Default(), pkts)
	if n := len(eventsOf(events, EventScannerDetected)); n != 0 {
		t.Errorf("detections = %d, want 0 for sub-minute burst", n)
	}
}

func TestBurstThenDurationEventuallyDetected(t *testing.T) {
	// A fast scanner that keeps going past one minute must be detected at
	// the moment both rules hold.
	src := packet.MustParseIP("203.0.113.8")
	pkts := steadyStream(src, t0, 1000, 100*time.Millisecond) // 100 s total
	events, _ := collect(Default(), pkts)
	det := eventsOf(events, EventScannerDetected)
	if len(det) != 1 {
		t.Fatalf("detections = %d, want 1", len(det))
	}
	if d := det[0].DetectedAt.Sub(t0); d < time.Minute || d > 61*time.Second {
		t.Errorf("detected after %v, want ≈1 minute (duration rule binds)", d)
	}
}

func TestExpiryGapResetsWalk(t *testing.T) {
	src := packet.MustParseIP("203.0.113.9")
	var pkts []packet.Packet
	// 60 packets, a 6-minute silence, then 60 more: the gap must reset
	// the walk so no detection occurs.
	pkts = append(pkts, steadyStream(src, t0, 60, time.Second)...)
	pkts = append(pkts, steadyStream(src, t0.Add(60*time.Second+6*time.Minute), 60, time.Second)...)
	events, _ := collect(Default(), pkts)
	if n := len(eventsOf(events, EventScannerDetected)); n != 0 {
		t.Errorf("detections = %d, want 0 after expiry reset", n)
	}
}

func TestSampleCollection(t *testing.T) {
	src := packet.MustParseIP("203.0.113.10")
	pkts := steadyStream(src, t0, 301, time.Second)
	events, d := collect(Default(), pkts)
	samples := eventsOf(events, EventSample)
	if len(samples) != 1 {
		t.Fatalf("samples = %d, want 1", len(samples))
	}
	if got := len(samples[0].Sample); got != 200 {
		t.Errorf("sample size = %d, want 200", got)
	}
	// The sample must contain the packets after detection, in order.
	for i := 1; i < len(samples[0].Sample); i++ {
		if samples[0].Sample[i].Timestamp.Before(samples[0].Sample[i-1].Timestamp) {
			t.Fatal("sample out of order")
		}
	}
	if d.Stats().SamplesEmitted != 1 {
		t.Errorf("SamplesEmitted = %d", d.Stats().SamplesEmitted)
	}
}

func TestBackscatterFiltered(t *testing.T) {
	src := packet.MustParseIP("198.51.100.1")
	var pkts []packet.Packet
	for i := 0; i < 500; i++ {
		p := packet.Packet{
			Timestamp: t0.Add(time.Duration(i) * time.Second),
			Proto:     packet.TCP,
			SrcIP:     src,
			DstIP:     packet.MustParseIP("10.9.9.9"),
			SrcPort:   80,
			DstPort:   55555,
			Flags:     packet.FlagSYN | packet.FlagACK,
		}
		p.Normalize()
		pkts = append(pkts, p)
	}
	events, d := collect(Default(), pkts)
	if n := len(eventsOf(events, EventScannerDetected)); n != 0 {
		t.Errorf("backscatter source detected as scanner")
	}
	if d.Stats().Backscatter != 500 {
		t.Errorf("Backscatter = %d, want 500", d.Stats().Backscatter)
	}
}

func TestFlowEndAtHourlySweep(t *testing.T) {
	src := packet.MustParseIP("203.0.113.11")
	pkts := steadyStream(src, t0, 400, time.Second) // ends at t0+400s
	var events []Event
	d := NewDetector(Default(), func(e Event) { events = append(events, e) })
	for i := range pkts {
		d.Process(&pkts[i])
	}
	// Sweep one hour later: flow idle 53+ minutes — not yet ended.
	d.EndHour(t0.Add(time.Hour))
	if n := len(eventsOf(events, EventFlowEnd)); n != 0 {
		t.Fatalf("flow ended too early (idle < flowEndGap): %d events", n)
	}
	// Sweep two hours later: idle > 1 h — flow must end.
	d.EndHour(t0.Add(2 * time.Hour))
	ends := eventsOf(events, EventFlowEnd)
	if len(ends) != 1 {
		t.Fatalf("flow ends = %d, want 1", len(ends))
	}
	if !ends[0].LastSeen.Equal(pkts[len(pkts)-1].Timestamp) {
		t.Errorf("LastSeen = %v, want %v", ends[0].LastSeen, pkts[len(pkts)-1].Timestamp)
	}
	if d.Stats().FlowsEnded != 1 {
		t.Errorf("FlowsEnded = %d", d.Stats().FlowsEnded)
	}
}

func TestShortSampleEmittedOnFlowEnd(t *testing.T) {
	src := packet.MustParseIP("203.0.113.12")
	// 150 packets: detection at 100, only 50 sampled before silence.
	pkts := steadyStream(src, t0, 150, time.Second)
	var events []Event
	d := NewDetector(Default(), func(e Event) { events = append(events, e) })
	for i := range pkts {
		d.Process(&pkts[i])
	}
	d.EndHour(t0.Add(3 * time.Hour))
	samples := eventsOf(events, EventSample)
	if len(samples) != 1 {
		t.Fatalf("samples = %d, want 1 (short sample on flow end)", len(samples))
	}
	if got := len(samples[0].Sample); got != 50 {
		t.Errorf("short sample size = %d, want 50", got)
	}
}

func TestSecondReports(t *testing.T) {
	src := packet.MustParseIP("203.0.113.13")
	pkts := steadyStream(src, t0, 10, 500*time.Millisecond) // spans 5 s
	var events []Event
	d := NewDetector(Default(), func(e Event) { events = append(events, e) })
	for i := range pkts {
		d.Process(&pkts[i])
	}
	d.Flush(pkts[len(pkts)-1].Timestamp)
	reports := eventsOf(events, EventSecondReport)
	if len(reports) < 5 {
		t.Fatalf("reports = %d, want ≥5", len(reports))
	}
	total := 0
	for _, e := range reports {
		total += e.Report.Total
		if e.Report.TCP != e.Report.Total {
			t.Errorf("second %v: TCP=%d Total=%d", e.Report.Second, e.Report.TCP, e.Report.Total)
		}
		if e.Report.PortPackets[23] != e.Report.Total {
			t.Errorf("port tally wrong: %v", e.Report.PortPackets)
		}
	}
	if total != len(pkts) {
		t.Errorf("reported total = %d, want %d", total, len(pkts))
	}
}

func TestMultipleSources(t *testing.T) {
	var pkts []packet.Packet
	srcs := []packet.IP{
		packet.MustParseIP("1.1.1.1"),
		packet.MustParseIP("2.2.2.2"),
		packet.MustParseIP("3.3.3.3"),
	}
	for _, src := range srcs {
		pkts = append(pkts, steadyStream(src, t0, 350, time.Second)...)
	}
	// Interleave by timestamp.
	sortByTime(pkts)
	events, d := collect(Default(), pkts)
	if n := len(eventsOf(events, EventScannerDetected)); n != 3 {
		t.Errorf("detections = %d, want 3", n)
	}
	if n := len(eventsOf(events, EventSample)); n != 3 {
		t.Errorf("samples = %d, want 3", n)
	}
	if d.Stats().ActiveSources != 3 {
		t.Errorf("ActiveSources = %d, want 3", d.Stats().ActiveSources)
	}
}

func sortByTime(pkts []packet.Packet) {
	for i := 1; i < len(pkts); i++ {
		for j := i; j > 0 && pkts[j].Timestamp.Before(pkts[j-1].Timestamp); j-- {
			pkts[j], pkts[j-1] = pkts[j-1], pkts[j]
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg != Default() {
		t.Errorf("withDefaults() = %+v, want paper operating point", cfg)
	}
	custom := Config{DetectionThreshold: 50}.withDefaults()
	if custom.DetectionThreshold != 50 || custom.SampleSize != 200 {
		t.Errorf("partial config not preserved: %+v", custom)
	}
}

func TestLowThresholdAblation(t *testing.T) {
	// With threshold 10 a slow scanner is caught far earlier.
	src := packet.MustParseIP("203.0.113.14")
	pkts := steadyStream(src, t0, 120, 10*time.Second)
	fast, _ := collect(Config{DetectionThreshold: 10}, pkts)
	slow, _ := collect(Default(), pkts)
	fd := eventsOf(fast, EventScannerDetected)
	sd := eventsOf(slow, EventScannerDetected)
	if len(fd) != 1 || len(sd) != 1 {
		t.Fatalf("detections: fast=%d slow=%d, want 1 each", len(fd), len(sd))
	}
	if !fd[0].DetectedAt.Before(sd[0].DetectedAt) {
		t.Error("lower threshold should detect earlier")
	}
}

func TestConfigWithDefaultsMinDuration(t *testing.T) {
	// Zero promotes to the paper's 1-minute floor.
	if got := (Config{}).withDefaults().MinDuration; got != time.Minute {
		t.Errorf("zero MinDuration promoted to %v, want 1m", got)
	}
	// Negative is the explicit ablation switch: the floor is disabled.
	if got := (Config{MinDuration: -1}).withDefaults().MinDuration; got != 0 {
		t.Errorf("negative MinDuration = %v, want 0 (floor disabled)", got)
	}
	// A positive value is kept as-is.
	if got := (Config{MinDuration: 5 * time.Second}).withDefaults().MinDuration; got != 5*time.Second {
		t.Errorf("explicit MinDuration = %v, want 5s", got)
	}
}

func TestConfigWithDefaultsZeroPromotion(t *testing.T) {
	d := Default()
	cases := []struct {
		name string
		in   Config
		want Config
	}{
		{"all-zero", Config{}, d},
		{"negative-threshold", Config{DetectionThreshold: -5}, d},
		{"partial", Config{SampleSize: 10, expiryGap: time.Minute},
			Config{DetectionThreshold: d.DetectionThreshold, SampleSize: 10,
				expiryGap: time.Minute, MinDuration: d.MinDuration, flowEndGap: d.flowEndGap}},
	}
	for _, c := range cases {
		if got := c.in.withDefaults(); got != c.want {
			t.Errorf("%s: withDefaults() = %+v, want %+v", c.name, got, c.want)
		}
	}
}

func TestMinDurationAblationDetectsFastBursts(t *testing.T) {
	// A misconfiguration burst: 150 packets in under a second. The
	// duration floor suppresses detection; the ablation catches it.
	src := packet.MustParseIP("203.0.113.31")
	pkts := steadyStream(src, t0, 150, 5*time.Millisecond)
	withFloor, _ := collect(Default(), pkts)
	ablated, _ := collect(Config{MinDuration: -1}, pkts)
	if n := len(eventsOf(withFloor, EventScannerDetected)); n != 0 {
		t.Errorf("duration floor: %d detections on a sub-minute burst, want 0", n)
	}
	if n := len(eventsOf(ablated, EventScannerDetected)); n != 1 {
		t.Errorf("ablation: %d detections, want 1", n)
	}
}
