package pipeline

import (
	"time"

	"exiot/internal/notify"
	"exiot/internal/packet"
	"exiot/internal/registry"
	"exiot/internal/trw"
	"exiot/internal/zmap"
)

// LocalConfig parameterizes a single-process pipeline; a BackHalf alone
// ignores the sampler's TRW.
type LocalConfig struct {
	TRW    trw.Config
	Server ServerConfig

	// Workers sizes the back half's scan-batch flush — the ZMap probe
	// pool and the annotate fan-out — unless Server.Workers is set
	// explicitly: 0 = GOMAXPROCS, 1 = serial. Detection is serial at any
	// setting (the telescope scales by `flowsampler -shard i/N`), and
	// generation follows GOMAXPROCS. The feed is identical at any
	// setting; only throughput changes.
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

// Local runs the sampler and the feed server's back half in one process,
// modeling the availability delays of the distributed deployment so feed
// latency is still measurable.
type Local struct {
	sampler *Sampler
	back    *BackHalf
	// hourEnd names the hour the sampler is emitting.
	hourEnd time.Time
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
	back, err := NewBackHalf(cfg, prober, reg, mailer)
	if err != nil {
		return nil, err
	}
	// A resumed run re-drives the same hours: the first events it
	// regenerates are already part of the recovered state, and
	// regeneration heals any torn-away WAL tail.
	if back.durable != nil {
		back.skip = back.durable.Recovery().Events()
	}
	l := &Local{back: back}
	l.sampler = NewSampler(cfg.TRW, func(e SamplerEvent) {
		back.Deliver(e, l.hourEnd)
	})
	return l, nil
}

// ProcessHour pushes one simulated hour through both halves. The hour's
// events surface in the feed at hour-end + collection + processing delay.
func (l *Local) ProcessHour(pkts []packet.Packet, hour time.Time) {
	l.hourEnd = hour.Add(time.Hour)
	l.sampler.ProcessHour(pkts, l.hourEnd)
	l.back.EndHour(l.hourEnd, false)
}

// Finish ends all live flows at now, the end of the last hour, and
// closes the input: the flush belongs to that hour (BackHalf).
func (l *Local) Finish(now time.Time) {
	l.hourEnd = now
	l.sampler.Flush(now)
	l.back.EndHour(now, true)
}

// Durable exposes the persistence layer (nil when disabled).
func (l *Local) Durable() *Durable { return l.back.durable }

// Close releases the state directory; Finish took the last snapshot.
// Safe to call with durability disabled.
func (l *Local) Close() error { return l.back.Close() }

// Server exposes the feed-server half (API source, stores, counters).
func (l *Local) Server() *Server { return l.back.server }

// Sampler exposes the CAIDA-side half (detector statistics).
func (l *Local) Sampler() *Sampler { return l.sampler }
