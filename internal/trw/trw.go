// Package trw implements eX-IoT's flow-detection and packet-sampling
// module: the backscatter filter, the Threshold-Random-Walk (TRW) scan
// detector specialized for darknet traffic, per-source sampling, flow
// expiry, and the per-second packet-level reports.
//
// On a network telescope every connection attempt is, by construction, a
// failed connection — the darkness never answers. The sequential
// hypothesis test of Jung et al. therefore degenerates into a likelihood
// ratio that climbs by a constant per observed packet, i.e. a packet-count
// threshold (the theoretic derivation is the authors' prior work, refs
// [54, 55] of the paper). The paper's operating point: a source is a
// scanner once it sends ≥100 packets with no inter-arrival gap above
// 300 s and a flow duration of at least 1 minute (the duration floor
// excludes misconfiguration bursts). After detection the next 200 packets
// are sampled in full for the classifier, then the flow is tracked only
// for liveness; it ends when an hour boundary finds it idle for >1 h.
package trw

import (
	"slices"
	"time"

	"exiot/internal/packet"
	"exiot/internal/telemetry"
)

// Telemetry handles for the arena flow table (see docs/OPERATIONS.md).
var (
	metFlowTableEntries = telemetry.Default().Gauge("exiot_flowtable_entries",
		"Live source-flow entries in the detector's arena flow table.")
	metFlowTableArena = telemetry.Default().Gauge("exiot_flowtable_arena_capacity",
		"Allocated entry slots in the detector's flow-table arena (slab length).")
	metFlowTableFree = telemetry.Default().Gauge("exiot_flowtable_free_entries",
		"Flow-table arena slots on the free list awaiting reuse.")
)

// Config holds the detector's operating thresholds. The zero value is
// replaced by the paper's operating point (see Default).
type Config struct {
	// DetectionThreshold is the TRW packet-count threshold (paper: 100).
	DetectionThreshold int
	// SampleSize is the number of packets sampled after detection
	// (paper: 200).
	SampleSize int
	// ExpiryGap is the maximum inter-arrival gap within a counting flow
	// (paper: 300 s).
	ExpiryGap time.Duration
	// MinDuration is the minimum flow duration before detection
	// (paper: 1 minute).
	MinDuration time.Duration
	// FlowEndGap is the idle period after which an hourly sweep declares
	// a scan flow ended (paper: 1 hour).
	FlowEndGap time.Duration
}

// Default returns the paper's operating point.
func Default() Config {
	return Config{
		DetectionThreshold: 100,
		SampleSize:         200,
		ExpiryGap:          300 * time.Second,
		MinDuration:        time.Minute,
		FlowEndGap:         time.Hour,
	}
}

func (c Config) withDefaults() Config {
	d := Default()
	if c.DetectionThreshold <= 0 {
		c.DetectionThreshold = d.DetectionThreshold
	}
	if c.SampleSize <= 0 {
		c.SampleSize = d.SampleSize
	}
	if c.ExpiryGap <= 0 {
		c.ExpiryGap = d.ExpiryGap
	}
	// A negative MinDuration disables the duration floor explicitly
	// (ablation studies); zero means "use the paper's default".
	if c.MinDuration == 0 {
		c.MinDuration = d.MinDuration
	} else if c.MinDuration < 0 {
		c.MinDuration = 0
	}
	if c.FlowEndGap <= 0 {
		c.FlowEndGap = d.FlowEndGap
	}
	return c
}

// EventKind discriminates detector events.
type EventKind int

// Detector event kinds.
const (
	// EventScannerDetected fires once when a source crosses the TRW
	// threshold.
	EventScannerDetected EventKind = iota + 1
	// EventSample fires when the post-detection sample is complete and
	// carries the sampled packets.
	EventSample
	// EventFlowEnd fires when the hourly sweep finds a scan flow idle
	// longer than FlowEndGap.
	EventFlowEnd
	// EventSecondReport carries the per-second packet-level report.
	EventSecondReport
)

// SecondReport is the per-second packet-level report the flow-detection
// module emits ("total processed packets, number of TCP, ICMP, UDP,
// number of newly detected scan flows, and number of packets targeting
// specific ports").
type SecondReport struct {
	Second       time.Time
	Total        int
	TCP          int
	UDP          int
	ICMP         int
	Backscatter  int
	NewScanFlows int
	PortPackets  map[uint16]int
}

// Event is one detector output.
type Event struct {
	Kind EventKind
	// IP identifies the source for scanner/sample/flow-end events.
	IP packet.IP
	// FirstSeen is the start of the flow that led to detection.
	FirstSeen time.Time
	// DetectedAt is when the source crossed the threshold.
	DetectedAt time.Time
	// LastSeen is the final packet time (flow-end events).
	LastSeen time.Time
	// Sample carries the sampled packets (sample events).
	Sample []packet.Packet
	// Report carries the per-second report (report events).
	Report *SecondReport
}

// Stats aggregates detector lifetime counters.
type Stats struct {
	Processed      int64
	Backscatter    int64
	ScannersFound  int64
	SamplesEmitted int64
	FlowsEnded     int64
	ActiveSources  int
}

// nanosPerSecond is the per-second report clock granularity.
const nanosPerSecond = int64(time.Second)

// unixTime reconstructs a time.Time from detector-internal unix nanos.
// Telescope capture stamps are UTC throughout the pipeline (simnet builds
// UTC times, pcapio normalizes to UTC), so the round trip is exact.
func unixTime(n int64) time.Time { return time.Unix(0, n).UTC() }

// Detector is the streaming flow detector. It is not safe for concurrent
// use; the pipeline feeds it from a single goroutine, like the paper's
// single Libtrace loop.
//
// Per-source state lives in an arena-backed flowTable (see flowtable.go)
// and all internal clocks are int64 unix-nanos; time.Time values are
// materialized only on emitted events. The steady-state Process path is
// allocation-free: port tallies go through a flat counter array, sample
// buffers come from a pool, and flow lookups hit the open-addressing
// table (one probe, or zero for a run of same-source packets).
type Detector struct {
	cfg   Config
	emit  func(Event)
	tbl   flowTable
	stats Stats

	// Config thresholds in hot-path form.
	thresholdN  int32
	sampleN     int
	expiryGapN  int64
	minDurN     int64
	flowEndGapN int64

	// Per-second report clock and counters. The PortPackets map of the
	// emitted report is built from portCount/portTouched at flush time;
	// the per-packet tally is a single array increment.
	secInit     bool
	curSec      int64
	repTotal    int
	repTCP      int
	repUDP      int
	repICMP     int
	repBackscat int
	repNewScans int
	portCount   []uint32
	portTouched []uint16

	// Same-source run cache: one table probe serves consecutive packets
	// of one source (scanners burst). Invalidated by every sweep.
	lastIP  packet.IP
	lastIdx int32

	// ended is the sweep's reusable scratch of expired arena indices.
	ended []int32
}

// NewDetector creates a detector that delivers events to emit.
func NewDetector(cfg Config, emit func(Event)) *Detector {
	cfg = cfg.withDefaults()
	// Epoch buckets at 1/8 of the flow-end gap keep boundary-epoch
	// rescans short without inflating the bucket index.
	epochLen := int64(cfg.FlowEndGap) / 8
	return &Detector{
		cfg:         cfg,
		emit:        emit,
		tbl:         newFlowTable(epochLen),
		thresholdN:  int32(cfg.DetectionThreshold),
		sampleN:     cfg.SampleSize,
		expiryGapN:  int64(cfg.ExpiryGap),
		minDurN:     int64(cfg.MinDuration),
		flowEndGapN: int64(cfg.FlowEndGap),
		portCount:   make([]uint32, 65536),
		portTouched: make([]uint16, 0, 256),
		lastIdx:     -1,
	}
}

// Process consumes one telescope packet. Packets must arrive in
// non-decreasing timestamp order.
func (d *Detector) Process(p *packet.Packet) {
	ts := p.Timestamp.UnixNano()
	d.tickSecond(ts)
	d.stats.Processed++
	d.repTotal++
	switch p.Proto {
	case packet.TCP:
		d.repTCP++
	case packet.UDP:
		d.repUDP++
	case packet.ICMP:
		d.repICMP++
	}

	if p.IsBackscatter() {
		d.stats.Backscatter++
		d.repBackscat++
		return
	}
	if d.portCount[p.DstPort] == 0 {
		d.portTouched = append(d.portTouched, p.DstPort)
	}
	d.portCount[p.DstPort]++

	var idx int32
	if d.lastIdx >= 0 && p.SrcIP == d.lastIP {
		idx = d.lastIdx
	} else {
		var isNew bool
		idx, isNew = d.tbl.getOrInsert(p.SrcIP, ts)
		d.lastIP, d.lastIdx = p.SrcIP, idx
		if isNew {
			return
		}
	}

	e := &d.tbl.entries[idx]
	gap := ts - e.last
	e.last = ts

	if e.scanner {
		if e.sampling {
			e.sample = append(e.sample, *p)
			if len(e.sample) >= d.sampleN {
				e.sampling = false
				d.stats.SamplesEmitted++
				sample := e.sample
				e.sample = nil
				d.emit(Event{
					Kind:       EventSample,
					IP:         p.SrcIP,
					FirstSeen:  unixTime(e.first),
					DetectedAt: unixTime(e.detected),
					Sample:     sample,
				})
			}
		}
		// Post-sample packets only refresh liveness.
		return
	}

	if gap > d.expiryGapN {
		// Counting flow expired: restart the walk.
		e.first = ts
		e.count = 1
		return
	}
	e.count++
	if e.count >= d.thresholdN && ts-e.first >= d.minDurN {
		e.scanner = true
		e.detected = ts
		e.count = 0 // paper: reset to zero to start packet sampling
		e.sampling = true
		e.sample = newSampleBuf(d.sampleN)
		d.stats.ScannersFound++
		d.repNewScans++
		d.emit(Event{
			Kind:       EventScannerDetected,
			IP:         p.SrcIP,
			FirstSeen:  unixTime(e.first),
			DetectedAt: unixTime(e.detected),
		})
	}
}

// tickSecond flushes per-second reports up to (not including) ts's second.
func (d *Detector) tickSecond(ts int64) {
	sec := ts - ts%nanosPerSecond
	if ts < 0 && ts%nanosPerSecond != 0 {
		sec -= nanosPerSecond
	}
	if !d.secInit {
		d.secInit = true
		d.curSec = sec
		return
	}
	for d.curSec < sec {
		d.flushSecond()
	}
}

// flushSecond emits the report for the current second, moves the clock to
// the next second, and resets the counters.
func (d *Detector) flushSecond() {
	rep := &SecondReport{
		Second:       unixTime(d.curSec),
		Total:        d.repTotal,
		TCP:          d.repTCP,
		UDP:          d.repUDP,
		ICMP:         d.repICMP,
		Backscatter:  d.repBackscat,
		NewScanFlows: d.repNewScans,
	}
	if len(d.portTouched) > 0 {
		m := make(map[uint16]int, len(d.portTouched))
		for _, port := range d.portTouched {
			m[port] = int(d.portCount[port])
			d.portCount[port] = 0
		}
		rep.PortPackets = m
		d.portTouched = d.portTouched[:0]
	}
	d.repTotal, d.repTCP, d.repUDP, d.repICMP = 0, 0, 0, 0
	d.repBackscat, d.repNewScans = 0, 0
	d.curSec += nanosPerSecond
	d.emit(Event{Kind: EventSecondReport, Report: rep})
}

// EndHour runs the hourly sweep the paper performs before processing a new
// hour: scan flows idle longer than FlowEndGap are declared ended (with an
// EventFlowEnd), and stale non-scanner state is dropped. Ended flows are
// swept in ascending source-IP order so the emitted event sequence is
// deterministic. The sweep is epoch-incremental: only buckets old enough
// to hold expirable flows are visited, never the whole table.
func (d *Detector) EndHour(now time.Time) {
	// Flush the in-flight second first so every hour's report stream is
	// self-contained: with hour-aligned input the pending second is always
	// complete at the barrier, and emitting it here (instead of carrying
	// it into the next hour) keeps the per-hour event set identical no
	// matter how the telescope is partitioned across nodes.
	if d.secInit {
		d.flushSecond()
		d.secInit = false
	}
	cutoff := now.UnixNano() - d.flowEndGapN
	d.ended = d.tbl.sweep(cutoff, d.ended[:0])
	d.lastIdx = -1
	entries := d.tbl.entries
	slices.SortFunc(d.ended, func(a, b int32) int {
		ipa, ipb := entries[a].ip, entries[b].ip
		switch {
		case ipa < ipb:
			return -1
		case ipa > ipb:
			return 1
		}
		return 0
	})
	for _, idx := range d.ended {
		e := &d.tbl.entries[idx]
		if e.scanner {
			// A flow still mid-sample when it dies is emitted short: the
			// organizer decides whether enough packets were collected.
			if e.sampling && len(e.sample) > 0 {
				d.stats.SamplesEmitted++
				sample := e.sample
				e.sample = nil
				d.emit(Event{
					Kind:       EventSample,
					IP:         e.ip,
					FirstSeen:  unixTime(e.first),
					DetectedAt: unixTime(e.detected),
					Sample:     sample,
				})
			}
			if e.sample != nil {
				// Sampling started but no packet ever landed: the buffer
				// was never emitted, so it can go straight back.
				RecycleSample(e.sample)
				e.sample = nil
			}
			d.stats.FlowsEnded++
			d.emit(Event{
				Kind:       EventFlowEnd,
				IP:         e.ip,
				FirstSeen:  unixTime(e.first),
				DetectedAt: unixTime(e.detected),
				LastSeen:   unixTime(e.last),
			})
		}
		d.tbl.release(idx)
	}
	d.updateGauges()
}

// updateGauges refreshes the flow-table occupancy/arena gauges. Called at
// sweep boundaries (hourly), never on the packet path.
func (d *Detector) updateGauges() {
	metFlowTableEntries.Set(float64(d.tbl.len()))
	metFlowTableArena.Set(float64(d.tbl.arenaCap()))
	metFlowTableFree.Set(float64(d.tbl.freeCount()))
}

// ActiveSources returns the number of tracked source flows.
func (d *Detector) ActiveSources() int { return d.tbl.len() }

// Flush emits the pending per-second report and any in-flight short
// samples, then ends every live scan flow. Call once at end of input.
func (d *Detector) Flush(now time.Time) {
	d.EndHour(now.Add(24 * time.Hour))
}

// Stats returns lifetime counters.
func (d *Detector) Stats() Stats {
	s := d.stats
	s.ActiveSources = d.tbl.len()
	return s
}
