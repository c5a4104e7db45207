package pipeline

import (
	"time"

	"exiot/internal/notify"
	"exiot/internal/registry"
	"exiot/internal/telemetry"
	"exiot/internal/trace"
	"exiot/internal/zmap"
)

// BackHalf is the feed-server half of the hourly hand-off. Local feeds it
// from its sampler and exiotd's receiver from the cluster merge
// (Receive). It logs each event to the WAL ahead of delivery, delivers it
// at its hour's availability stamp, and at an hour end ticks the server
// and snapshots when due. An hour is named by its end; the end-of-input
// flush belongs to the last hour.
type BackHalf struct {
	server  *Server
	durable *Durable
	delay   time.Duration // hour end to availability: collection + processing
	// skip counts re-driven events the recovered state already holds
	// (Local's resume); they are neither logged nor delivered again.
	skip uint64
	// hour is the server layer's call: the hour's first delivered event
	// until EndHour returns.
	hour telemetry.Hour
}

// layerServer times the feed server per hour; items are events.
var layerServer = telemetry.Default().Layer("server")

// NewBackHalf builds the feed server of cfg.Server, recovering its state
// from cfg.Durable.Dir when set. cfg.Workers sizes the scan-batch flush
// unless cfg.Server.Workers is set; zero delays take the defaults.
func NewBackHalf(cfg LocalConfig, prober zmap.Prober, reg *registry.Registry, mailer notify.Mailer) (*BackHalf, error) {
	def := DefaultLocalConfig()
	if cfg.CollectionDelay == 0 {
		cfg.CollectionDelay = def.CollectionDelay
	}
	if cfg.ProcessingDelay == 0 {
		cfg.ProcessingDelay = def.ProcessingDelay
	}
	if cfg.Server.Workers == 0 {
		cfg.Server.Workers = cfg.Workers
	}
	b := &BackHalf{
		server: NewServer(cfg.Server, prober, reg, mailer),
		delay:  cfg.CollectionDelay + cfg.ProcessingDelay,
	}
	if cfg.Durable.Dir != "" {
		dur, err := OpenDurable(cfg.Durable, b.server) // recovers
		if err != nil {
			return nil, err
		}
		b.durable = dur
	}
	return b, nil
}

// Deliver logs and applies one event of the hour ending at hourEnd. Call
// it from one goroutine: delivery is synchronous, so log order is apply
// order.
func (b *BackHalf) Deliver(e SamplerEvent, hourEnd time.Time) {
	at := hourEnd.Add(b.delay)
	if b.durable != nil {
		if b.skip > 0 {
			b.skip--
			return
		}
		b.durable.Append(e, at)
	}
	b.hour.Add(1)
	b.server.HandleEvent(e, at)
}

// EndHour closes the hour ending at hourEnd: tick, then snapshot when
// due. final (end of input) first flushes the scan batch and forces the
// snapshot: the flush is no logged input, so only a snapshot keeps its
// records across a restart.
func (b *BackHalf) EndHour(hourEnd time.Time, final bool) {
	b.hour.Add(0)
	at := hourEnd.Add(b.delay)
	if final {
		b.server.FlushScans(at)
	}
	b.server.Tick(at)
	if b.durable != nil && (final || b.skip == 0) {
		b.durable.MaybeSnapshot(at, final)
	}
	layerServer.Close(&b.hour)
}

// Receive builds exiotd's receiver: the merge of shards ingest streams
// in front of b. Feed it every wire frame.
func (b *BackHalf) Receive(shards int) *Aggregator {
	return NewAggregator(AggregatorConfig{
		Shards: shards,
		Emit: func(e SamplerEvent, hourEnd time.Time) {
			traceIncoming(&e, time.Now())
			b.Deliver(e, hourEnd)
		},
		OnHourMerged: b.EndHour,
	})
}

// traceIncoming starts the receiving side's trace of a merged wire event:
// sampling is a pure function of the wire-carried trace ID, so sender and
// receiver select the same events. No-op when tracing is off or the event
// carries no ID.
func traceIncoming(e *SamplerEvent, receivedAt time.Time) {
	if e.TraceID == 0 || !trace.Default().Enabled() {
		return
	}
	ip, kind := e.IP.String(), "flow_end"
	if e.Kind == SamplerBatch {
		ip, kind = e.Batch.IPString, "batch"
	}
	if f := trace.Default().Sample(e.TraceID, ip, kind); f != nil {
		f.Span("wire", receivedAt, receivedAt)
		e.Trace = f
	}
}

// Close releases the state directory, if any.
func (b *BackHalf) Close() error {
	if b.durable == nil {
		return nil
	}
	return b.durable.Close()
}

// Server exposes the feed server (API source, stores, counters).
func (b *BackHalf) Server() *Server { return b.server }

// Durable exposes the persistence layer (nil when disabled).
func (b *BackHalf) Durable() *Durable { return b.durable }
