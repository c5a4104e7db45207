// Package trace follows individual sampler events across the eX-IoT
// pipeline: each traced flow accumulates typed spans (sampler organize,
// wire transport, scan-module batching, zmap probing, annotation,
// enrichment, the server's stateful tail) with a queue-wait vs.
// work-time split and stage-specific attributes. Trace IDs derive
// deterministically from event content (source IP, event kind, and the
// event's own timestamps) — never from the wall clock, randomness, or
// node-local counters — so the same flow gets the same ID at any worker
// count, on any cluster shard, on both sides of the wire, and across a
// WAL replay. Completed traces land in a bounded lock-sharded ring
// store (plus a slowest-N-per-stage tail sample), feed the end-to-end
// exiot_event_latency_seconds histogram, and surface slow outliers
// through a structured log/slog line.
//
// Tracing is provably inert: the feed is byte-identical with tracing on
// or off (only timing capture is gated; record provenance is always
// deterministic), and when sampling is disabled the hot path costs a
// single atomic load with zero allocations.
package trace

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"exiot/internal/packet"
	"exiot/internal/telemetry"
)

// latencyBuckets resolve one event's end-to-end time, which is orders
// of magnitude finer than the layer calls DefBuckets target.
var latencyBuckets = []float64{
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// Telemetry handles (see docs/OPERATIONS.md).
var (
	metEventLatency = telemetry.Default().Histogram("exiot_event_latency_seconds",
		"End-to-end time of one traced event, from sampling to its last span.",
		latencyBuckets)
	metSampled = telemetry.Default().Counter("exiot_traces_sampled_total",
		"Sampler events selected for tracing.")
	metSlow = telemetry.Default().Counter("exiot_traces_slow_total",
		"Completed traces exceeding the -trace-slow threshold (each one is logged).")
)

// ID identifies one traced sampler event. It is a pure function of the
// event's content (EventID), so every pipeline replica and replay
// derives the same value. Zero means "no trace".
type ID uint64

// EventID derives the deterministic trace ID for a sampler event purely
// from the event's own content: the flow's source address, the event
// kind, and two of its timestamps (nanosecond precision). Because no
// node-local state is involved, every deployment shape — one node or
// an N-node cluster — assigns the same ID to the
// same event, which is what lets a distributed run produce a feed
// byte-identical to a single-node one. Zero means "no trace".
func EventID(ip packet.IP, kind uint8, t1, t2 time.Time) ID {
	var buf [21]byte
	binary.BigEndian.PutUint32(buf[0:], uint32(ip))
	buf[4] = kind
	binary.BigEndian.PutUint64(buf[5:], uint64(t1.UnixNano()))
	binary.BigEndian.PutUint64(buf[13:], uint64(t2.UnixNano()))
	h := fnv.New64a()
	h.Write(buf[:])
	id := ID(h.Sum64())
	if id == 0 {
		id = 1 // reserve 0 for "untraced"
	}
	return id
}

// String renders the ID as 16 hex digits (the form the APIs accept).
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// ParseID parses the hex form produced by String.
func ParseID(s string) (ID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: bad id %q: %w", s, err)
	}
	return ID(v), nil
}

// MarshalJSON renders the ID as a hex string (uint64 values do not
// survive JSON number round-trips through other tooling).
func (id ID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + id.String() + `"`), nil
}

// UnmarshalJSON accepts the hex string form.
func (id *ID) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("trace: id must be a hex string, got %s", b)
	}
	v, err := ParseID(string(b[1 : len(b)-1]))
	if err != nil {
		return err
	}
	*id = v
	return nil
}

// Attr is one stage-specific key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Str builds a string attribute.
func Str(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, Value: strconv.Itoa(v)} }

// Float builds a float attribute.
func Float(key string, v float64) Attr {
	return Attr{Key: key, Value: strconv.FormatFloat(v, 'g', -1, 64)}
}

// Span is one completed stage visit. Start is when the event entered
// the stage, WorkStart when a worker actually picked it up (the
// difference is queue wait), End when the stage finished.
type Span struct {
	Stage     string
	Start     time.Time
	WorkStart time.Time
	End       time.Time
	Attrs     []Attr
}

// Wait returns the time spent queued before work began.
func (s *Span) Wait() time.Duration { return s.WorkStart.Sub(s.Start) }

// Work returns the time spent actually working.
func (s *Span) Work() time.Duration { return s.End.Sub(s.WorkStart) }

// Flow is one live trace. Methods are nil-safe no-ops so call sites can
// thread a possibly-nil *Flow without branching; sites that build attrs
// should still guard with `if f != nil` to keep the untraced path
// allocation-free.
type Flow struct {
	ID    ID
	IP    string
	Kind  string // "batch" or "flow_end"
	Start time.Time

	mu    sync.Mutex
	spans []Span
	done  bool
}

// SpanAt appends a completed span with an explicit end time. Nil-safe.
func (f *Flow) SpanAt(stage string, start, workStart, end time.Time, attrs ...Attr) {
	if f == nil {
		return
	}
	if workStart.Before(start) {
		workStart = start
	}
	if end.Before(workStart) {
		end = workStart
	}
	f.mu.Lock()
	if !f.done {
		f.spans = append(f.spans, Span{Stage: stage, Start: start, WorkStart: workStart, End: end, Attrs: attrs})
	}
	f.mu.Unlock()
}

// Span appends a completed span ending now. start is when the event
// entered the stage, workStart when processing began (pass start when
// there was no queue). Nil-safe.
func (f *Flow) Span(stage string, start, workStart time.Time, attrs ...Attr) {
	if f == nil {
		return
	}
	f.SpanAt(stage, start, workStart, time.Now(), attrs...)
}

// Spans returns a snapshot of the recorded spans.
func (f *Flow) Spans() []Span {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Span, len(f.spans))
	copy(out, f.spans)
	return out
}

// Tracer owns the sampling decision, the completed-trace store, the
// end-to-end latency histogram, and the slow-trace log.
type Tracer struct {
	sampleEvery atomic.Int64                // 0 = off, 1 = every event, N = id%N == 0
	slowNs      atomic.Int64                // 0 = slow logging off
	logger      atomic.Pointer[slog.Logger] // nil logs through slog.Default; tests store their own
	store       *Store
}

// NewTracer builds a tracer with its own store (tests); the process
// normally uses Default.
func NewTracer(store *Store) *Tracer {
	if store == nil {
		store = NewStore()
	}
	return &Tracer{store: store}
}

// defaultTracer is the process-wide tracer both daemons configure from
// their -trace-sample / -trace-slow flags.
var defaultTracer = NewTracer(nil)

// Default returns the process-wide tracer.
func Default() *Tracer { return defaultTracer }

// SetSampleEvery sets the sampling modulus: 0 disables tracing, 1
// traces every event, N traces events whose ID satisfies id%N == 0 —
// a deterministic decision every replica reaches independently.
func (t *Tracer) SetSampleEvery(n int) { t.sampleEvery.Store(int64(n)) }

// SetSlowThreshold sets the end-to-end duration above which a completed
// trace is logged (0 disables the slow log).
func (t *Tracer) SetSlowThreshold(d time.Duration) { t.slowNs.Store(int64(d)) }

// Enabled reports whether any sampling is configured. One atomic load:
// cheap enough for per-event checks on the hot path.
func (t *Tracer) Enabled() bool { return t.sampleEvery.Load() > 0 }

// Store returns the completed-trace store.
func (t *Tracer) Store() *Store { return t.store }

// Sample starts a trace for the event when its ID is selected, and
// returns nil otherwise. The untraced path allocates nothing.
func (t *Tracer) Sample(id ID, ip, kind string) *Flow {
	n := t.sampleEvery.Load()
	if n <= 0 || id == 0 {
		return nil
	}
	if n > 1 && uint64(id)%uint64(n) != 0 {
		return nil
	}
	metSampled.Inc()
	return &Flow{ID: id, IP: ip, Kind: kind, Start: time.Now()}
}

// Finish completes a flow: its end-to-end time feeds the latency
// histogram, the flow lands in the store, and it is logged when slower
// than the threshold. Nil-safe; finishing twice is a no-op.
func (t *Tracer) Finish(f *Flow) {
	if f == nil {
		return
	}
	end := time.Now()
	f.mu.Lock()
	if f.done {
		f.mu.Unlock()
		return
	}
	f.done = true
	spans := f.spans
	f.mu.Unlock()

	var slowest string
	var slowestWork time.Duration
	for i := range spans {
		if work := spans[i].Work(); work >= slowestWork {
			slowestWork, slowest = work, spans[i].Stage
		}
	}
	total := end.Sub(f.Start)
	metEventLatency.Observe(total.Seconds())
	t.store.Add(f, end)

	if slow := t.slowNs.Load(); slow > 0 && total >= time.Duration(slow) {
		metSlow.Inc()
		l := t.logger.Load()
		if l == nil {
			l = slog.Default()
		}
		l.Warn("slow trace",
			"trace_id", f.ID.String(),
			"ip", f.IP,
			"kind", f.Kind,
			"total_ms", float64(total)/float64(time.Millisecond),
			"spans", len(spans),
			"slowest_stage", slowest,
			"slowest_work_ms", float64(slowestWork)/float64(time.Millisecond),
		)
	}
}
