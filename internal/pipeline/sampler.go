// Package pipeline wires eX-IoT's modules into the two halves of Fig. 2:
// the Sampler (the CAIDA-side flow detection & sampling binary) and the
// Server (the eX-IoT feed server: scan module, annotate module, update
// classifier, the feed databases, notifications, and the API source).
// A Local pipeline runs both halves in one process with simulated
// collection delays, which is how the experiments and examples drive it.
package pipeline

import (
	"math"
	"slices"
	"time"

	"exiot/internal/organizer"
	"exiot/internal/packet"
	"exiot/internal/telemetry"
	"exiot/internal/trace"
	"exiot/internal/trw"
)

// Telemetry handles for the sampler half (see docs/OPERATIONS.md).
var (
	// layerTRW times detection: one call per hour, items are packets.
	layerTRW = telemetry.Default().Layer("trw")

	metSamplerEvents = telemetry.Default().CounterVec("exiot_sampler_events_total",
		"Sampler events emitted downstream, by kind.", "kind")
	evBatch   = metSamplerEvents.With("batch")
	evFlowEnd = metSamplerEvents.With("flow_end")
	evReport  = metSamplerEvents.With("report")

	metOrganizerFlows = telemetry.Default().CounterVec("exiot_organizer_flows_total",
		"Sampled flows at the packet organizer, by outcome.", "result")
	orgAccepted = metOrganizerFlows.With("accepted")
	orgDropped  = metOrganizerFlows.With("dropped")
)

// ingestMaxAge is how long the ingest health check tolerates silence
// before /healthz reports the sampler stalled. Real deployments see an
// hour of captures every hour; 15 wall-clock minutes of no progress on a
// follower means the poll loop or the detector is stuck.
const ingestMaxAge = 15 * time.Minute

// SamplerEventKind discriminates sampler outputs.
type SamplerEventKind int

// Sampler event kinds.
const (
	// SamplerBatch carries an organized sampled flow.
	SamplerBatch SamplerEventKind = iota + 1
	// SamplerFlowEnd signals the end of a scan flow.
	SamplerFlowEnd
	// SamplerReport carries a per-second packet-level report.
	SamplerReport
)

// SamplerEvent is one output of the CAIDA-side half.
type SamplerEvent struct {
	Kind SamplerEventKind

	// Batch is set for SamplerBatch events.
	Batch *organizer.Batch

	// Flow-end fields.
	IP         packet.IP
	FirstSeen  time.Time
	DetectedAt time.Time
	LastSeen   time.Time

	// Report is set for SamplerReport events.
	Report *trw.SecondReport

	// TraceID is the deterministic per-event trace identifier (zero for
	// reports). Batch events additionally carry it in the batch header so
	// it survives the wire and the WAL.
	TraceID trace.ID

	// Trace is the live trace for sampled events; nil when tracing is
	// off or the event was not selected. Never serialized.
	Trace *trace.Flow
}

// Sampler is the CAIDA-side half: TRW detection plus the packet
// organizer, consuming hourly packet batches on the caller's goroutine.
// The telescope scales by running one Sampler per source partition
// (`flowsampler -shard i/N`), not by threads inside one.
//
// Events buffer per hour and emit at the ProcessHour/Flush barrier in
// *canonical* order — a total order derived purely from event content
// (see canonCompare), never from processing position. It is the only
// event order the system defines, and it makes the emitted stream a pure
// function of the hour's packet set: one sampler and an N-node cluster
// merge (Aggregator) deliver byte-identical hours.
type Sampler struct {
	detector *trw.Detector
	org      *organizer.Organizer
	emit     func(SamplerEvent)

	// pending buffers the current hour's events until the barrier, where
	// they sort into canonical order and emit.
	pending []SamplerEvent

	// liveness is the ingest health check beaten on every processed hour.
	liveness *telemetry.Check
}

// NewSampler builds the CAIDA-side half.
func NewSampler(trwCfg trw.Config, minSamples int, emit func(SamplerEvent)) *Sampler {
	s := &Sampler{
		org:      organizer.New(),
		emit:     emit,
		liveness: telemetry.DefaultHealth().Register("ingest", ingestMaxAge),
	}
	if minSamples > 0 {
		s.org.MinSamples = minSamples
	}
	s.detector = trw.NewDetector(trwCfg, s.onDetectorEvent)
	return s
}

// NewSamplerWorkers is NewSampler; the worker count is ignored.
//
// Deprecated: detection is serial per process and the telescope scales by
// `flowsampler -shard i/N`. Kept only for callers under bench/.
func NewSamplerWorkers(trwCfg trw.Config, minSamples, _ int, emit func(SamplerEvent)) *Sampler {
	return NewSampler(trwCfg, minSamples, emit)
}

func (s *Sampler) onDetectorEvent(e trw.Event) {
	switch e.Kind {
	case trw.EventSample:
		var t0 time.Time
		traceOn := trace.Default().Enabled()
		if traceOn {
			t0 = time.Now()
		}
		if b, ok := s.org.Organize(e); ok {
			orgAccepted.Inc()
			evBatch.Inc()
			b.TraceID = trace.EventID(b.IP, uint8(SamplerBatch), b.FirstSeen, b.DetectedAt)
			ev := SamplerEvent{Kind: SamplerBatch, Batch: &b, TraceID: b.TraceID}
			if traceOn {
				if f := trace.Default().Sample(b.TraceID, b.IPString, "batch"); f != nil {
					f.Span("sampler", t0, t0,
						trace.Int("sample_size", len(b.Sample)),
						trace.Str("trigger_hour", b.DetectedAt.Truncate(time.Hour).Format(time.RFC3339)),
						trace.Float("detect_lag_s", b.DetectedAt.Sub(b.FirstSeen).Seconds()))
					ev.Trace = f
				}
			}
			s.pending = append(s.pending, ev)
		} else {
			orgDropped.Inc()
		}
		// The organizer copied (or rejected) the packets; hand the
		// detector's sample buffer back for the next detection.
		trw.RecycleSample(e.Sample)
	case trw.EventFlowEnd:
		evFlowEnd.Inc()
		ev := SamplerEvent{
			Kind:       SamplerFlowEnd,
			IP:         e.IP,
			FirstSeen:  e.FirstSeen,
			DetectedAt: e.DetectedAt,
			LastSeen:   e.LastSeen,
			TraceID:    trace.EventID(e.IP, uint8(SamplerFlowEnd), e.DetectedAt, e.LastSeen),
		}
		if trace.Default().Enabled() {
			if f := trace.Default().Sample(ev.TraceID, e.IP.String(), "flow_end"); f != nil {
				now := time.Now()
				f.SpanAt("sampler", now, now, now)
				ev.Trace = f
			}
		}
		s.pending = append(s.pending, ev)
	case trw.EventSecondReport:
		evReport.Inc()
		s.pending = append(s.pending, SamplerEvent{Kind: SamplerReport, Report: e.Report})
	}
}

// canonKey projects a sampler event onto its canonical emission instant:
// the nanosecond at which the serial detector's clock makes the event
// due. A second's report is due when the clock passes the second's end; a
// sampled batch is due at its last (latest-stamped) sample packet; a
// flow-end is due at the hourly sweep, after everything else. Only event
// content feeds the key.
func canonKey(e *SamplerEvent) int64 {
	switch e.Kind {
	case SamplerReport:
		return e.Report.Second.Add(time.Second).UnixNano()
	case SamplerBatch:
		if n := len(e.Batch.Sample); n > 0 {
			return e.Batch.Sample[n-1].Timestamp.UnixNano()
		}
		return e.Batch.DetectedAt.UnixNano()
	default: // SamplerFlowEnd
		return math.MaxInt64
	}
}

// canonCompare is the canonical total order on one hour's events:
// (due instant, kind, source IP, first-seen, detected-at). The kind rank
// puts a second's report ahead of a batch due at the same instant —
// the report for second S-1 flushes before the packet at S processes —
// and flow-ends after everything. Two events equal under this order are
// identical, so the sort is a total order over any hour the telescope
// can produce, regardless of how the source space was partitioned.
func canonCompare(a, b SamplerEvent) int {
	if c := cmpInt64(canonKey(&a), canonKey(&b)); c != 0 {
		return c
	}
	if c := int(a.Kind) - int(b.Kind); c != 0 {
		return c
	}
	aip, bip := a.IP, b.IP
	if a.Kind == SamplerBatch {
		aip, bip = a.Batch.IP, b.Batch.IP
	}
	if c := cmpInt64(int64(uint32(aip)), int64(uint32(bip))); c != 0 {
		return c
	}
	af, bf := a.FirstSeen, b.FirstSeen
	ad, bd := a.DetectedAt, b.DetectedAt
	if a.Kind == SamplerBatch {
		af, ad = a.Batch.FirstSeen, a.Batch.DetectedAt
		bf, bd = b.Batch.FirstSeen, b.Batch.DetectedAt
	}
	if c := cmpInt64(af.UnixNano(), bf.UnixNano()); c != 0 {
		return c
	}
	return cmpInt64(ad.UnixNano(), bd.UnixNano())
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// flushPending sorts the hour's buffered events into canonical order and
// emits them downstream.
func (s *Sampler) flushPending() {
	slices.SortFunc(s.pending, canonCompare)
	for i := range s.pending {
		s.emit(s.pending[i])
		s.pending[i] = SamplerEvent{} // release batch/sample references
	}
	s.pending = s.pending[:0]
}

// ProcessHour consumes one hour of telescope packets (sorted by time) and
// then runs the detector's hourly sweep, exactly like the paper's loop
// over newly published pcap hours. The trw layer ends before the hour's
// events go downstream.
func (s *Sampler) ProcessHour(pkts []packet.Packet, hourEnd time.Time) {
	defer s.liveness.Beat()
	start := time.Now()
	for i := range pkts {
		s.detector.Process(&pkts[i])
	}
	s.detector.EndHour(hourEnd)
	layerTRW.Done(start, len(pkts))
	s.flushPending()
}

// Flush ends all live flows (end of a simulation run).
func (s *Sampler) Flush(now time.Time) {
	s.detector.Flush(now)
	s.flushPending()
}

// DetectorStats exposes the underlying detector counters.
func (s *Sampler) DetectorStats() trw.Stats { return s.detector.Stats() }

// OrganizerStats exposes (accepted, dropped) counters.
func (s *Sampler) OrganizerStats() (accepted, dropped int64) { return s.org.Stats() }
