package pipeline

import (
	"time"

	"exiot/internal/notify"
	"exiot/internal/packet"
	"exiot/internal/registry"
	"exiot/internal/telemetry"
	"exiot/internal/trw"
	"exiot/internal/zmap"
)

// LocalConfig parameterizes a single-process pipeline.
type LocalConfig struct {
	TRW        trw.Config
	MinSamples int
	Server     ServerConfig

	// Workers sizes the back half's scan-batch flush — the ZMap probe
	// pool and the annotate fan-out — unless Server.Workers is set
	// explicitly: 0 = GOMAXPROCS, 1 = serial. Detection is serial at any
	// setting (the telescope scales by `flowsampler -shard i/N`). The
	// feed is identical at any setting; only throughput changes.
	Workers int

	// CollectionDelay models CAIDA's collect/compress/store lag before an
	// hourly capture is published (paper: ≈3.5 h — the dominant
	// contributor to feed latency).
	CollectionDelay time.Duration
	// ProcessingDelay models the flow-detection pass over one published
	// hour (paper: ≈20 minutes per hour of data).
	ProcessingDelay time.Duration

	// Durable persists feed state to a WAL + snapshot directory and
	// recovers it on start (empty Dir disables). On resume, re-drive the
	// same generated hours through ProcessHour: deliveries already
	// covered by the recovered state are skipped and the run continues
	// exactly where the previous process stopped.
	Durable DurableConfig
}

// DefaultLocalConfig returns the paper's operating point.
func DefaultLocalConfig() LocalConfig {
	return LocalConfig{
		TRW:             trw.Default(),
		Server:          DefaultServerConfig(),
		CollectionDelay: 3*time.Hour + 30*time.Minute,
		ProcessingDelay: 20 * time.Minute,
	}
}

// Local runs the sampler and the feed server in one process, modeling the
// availability delays of the distributed deployment so feed latency is
// still measurable.
type Local struct {
	cfg     LocalConfig
	sampler *Sampler
	server  *Server
	// durable persists state when configured; skip counts regenerated
	// events already covered by the recovered state, which are neither
	// re-logged nor re-delivered.
	durable *Durable
	skip    uint64

	availableAt time.Time
}

// NewLocal assembles a single-process pipeline. When cfg.Durable.Dir is
// set and the state directory cannot be opened, NewLocal panics; use
// NewDurableLocal to handle the error.
func NewLocal(cfg LocalConfig, prober zmap.Prober, reg *registry.Registry, mailer notify.Mailer) *Local {
	l, err := NewDurableLocal(cfg, prober, reg, mailer)
	if err != nil {
		panic(err)
	}
	return l
}

// NewDurableLocal assembles a single-process pipeline, recovering feed
// state from cfg.Durable.Dir when configured. The error is always nil
// with durability disabled.
func NewDurableLocal(cfg LocalConfig, prober zmap.Prober, reg *registry.Registry, mailer notify.Mailer) (*Local, error) {
	if cfg.CollectionDelay == 0 {
		cfg.CollectionDelay = DefaultLocalConfig().CollectionDelay
	}
	if cfg.ProcessingDelay == 0 {
		cfg.ProcessingDelay = DefaultLocalConfig().ProcessingDelay
	}
	if cfg.Server.Workers == 0 {
		cfg.Server.Workers = cfg.Workers
	}
	l := &Local{cfg: cfg}
	l.server = NewServer(cfg.Server, prober, reg, mailer)
	if cfg.Durable.Dir != "" {
		// Recovery runs here: snapshot restore plus WAL replay through
		// the normal event path, before the first regenerated hour.
		dur, err := OpenDurable(cfg.Durable, l.server)
		if err != nil {
			return nil, err
		}
		l.durable = dur
		l.skip = dur.Recovery().Events()
	}
	// The WAL sits ahead of delivery, in the sampler's (serial) emit
	// order, and delivery is synchronous, so log order always equals
	// server apply order. The first skip events of a resumed run are
	// already part of the recovered state: regeneration heals any
	// torn-away WAL tail.
	emit := func(e SamplerEvent) {
		if l.durable != nil {
			if l.skip > 0 {
				l.skip--
				return
			}
			l.durable.Append(e, l.availableAt)
		}
		l.server.HandleEvent(e, l.availableAt)
	}
	l.sampler = NewSampler(cfg.TRW, cfg.MinSamples, emit)
	return l, nil
}

// ProcessHour pushes one simulated hour through both halves. The hour's
// events surface in the feed at hour-end + collection + processing delay.
func (l *Local) ProcessHour(pkts []packet.Packet, hour time.Time) {
	span := telemetry.Default().StartSpan("hour")
	defer span.End()
	hourEnd := hour.Add(time.Hour)
	l.availableAt = hourEnd.Add(l.cfg.CollectionDelay).Add(l.cfg.ProcessingDelay)
	l.sampler.ProcessHour(pkts, hourEnd)
	l.server.Tick(l.availableAt)
	if l.durable != nil && l.skip == 0 {
		l.durable.MaybeSnapshot(l.availableAt, false)
	}
}

// Finish ends all live flows and flushes pending scans at the end of a
// run.
func (l *Local) Finish(now time.Time) {
	l.availableAt = now.Add(l.cfg.CollectionDelay).Add(l.cfg.ProcessingDelay)
	l.sampler.Flush(now)
	l.server.FlushScans(l.availableAt)
	l.server.Tick(l.availableAt)
}

// Durable exposes the persistence layer (nil when disabled).
func (l *Local) Durable() *Durable { return l.durable }

// Close finalizes persistence: a last snapshot is taken (Finish's
// FlushScans is not a logged input, so only a snapshot keeps the last
// batch's records) and the state directory is released. Safe to call
// with durability disabled.
func (l *Local) Close() error {
	if l.durable == nil {
		return nil
	}
	l.durable.MaybeSnapshot(l.availableAt, true)
	return l.durable.Close()
}

// Server exposes the feed-server half (API source, stores, counters).
func (l *Local) Server() *Server { return l.server }

// Sampler exposes the CAIDA-side half (detector statistics).
func (l *Local) Sampler() *Sampler { return l.sampler }
