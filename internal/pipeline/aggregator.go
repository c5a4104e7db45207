package pipeline

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"exiot/internal/telemetry"
	"exiot/internal/trw"
	"exiot/internal/wire"
)

// Telemetry handles for the cluster merge stage (see docs/OPERATIONS.md).
var (
	metClusterShardSeq = telemetry.Default().GaugeVec("exiot_cluster_shard_seq",
		"Highest in-order wire sequence applied from one ingest shard.", "shard")
	metClusterShardLag = telemetry.Default().GaugeVec("exiot_cluster_shard_lag_hours",
		"Hours one shard has completed that the merge barrier is still holding (another shard is behind).", "shard")
	metClusterMergeDepth = telemetry.Default().Gauge("exiot_cluster_merge_depth_events",
		"Events merged in the most recently completed cluster hour.")
	metClusterDupFrames = telemetry.Default().Counter("exiot_cluster_frames_duplicate_total",
		"Replayed frames discarded by per-shard sequence tracking (reconnect replays).")
)

// clusterMergeMaxAge is how long the cluster health check tolerates no
// completed merge before /healthz reports the merge stalled — the
// operational signature of a silent (crashed, partitioned) ingest shard
// holding the hour barrier.
const clusterMergeMaxAge = 15 * time.Minute

// AggregatorConfig configures the cluster-side deterministic merge.
type AggregatorConfig struct {
	// Shards is the expected shard count N ≥ 1; every incoming frame
	// must carry ShardCount == N and ShardID < N.
	Shards int

	// Emit receives every merged event in canonical order together with
	// the end of the hour it belongs to. Runs on the ingesting goroutine,
	// serialized by the aggregator's lock.
	Emit func(e SamplerEvent, hourEnd time.Time)

	// OnHourMerged, if set, fires after an hour's events have all been
	// emitted: final reports whether every shard marked the hour as its
	// last (end of input).
	OnHourMerged func(hourEnd time.Time, final bool)

	// Health receives the merge-liveness check; nil uses the process
	// default registry.
	Health *telemetry.Health
}

// aggShard is one upstream's place in its stream: the hour it is
// sending and the hours it has closed that the merge still holds.
type aggShard struct {
	nextSeq uint64    // next sequence to apply (first is 1)
	open    aggHour   // the hour in progress (its epoch is set once it has a frame)
	closed  []aggHour // barrier-closed hours awaiting merge, oldest first
	last    int64     // epoch of the last closed hour

	seqGauge *telemetry.Gauge
	lagGauge *telemetry.Gauge
}

// aggHour is one shard's events for one hour.
type aggHour struct {
	epoch  int64
	events []SamplerEvent
	final  bool
}

// Aggregator k-way merges the event streams of N ingest shards into the
// single canonical stream a one-node telescope would produce. Each shard
// delivers its frames as its Shipper sent them: an hour's events, then
// that hour's KindHourEnd barrier, hour after hour, in sequence order.
// A replayed frame is dropped; a frame past a sequence gap, or out of
// that hour order, is refused and nothing of it is kept. A closed hour
// is released only when *every* shard has closed it — then the shards'
// per-second reports are summed and gap-filled (trw.ReportSum) and the
// union sorted into canonical order, so the merge output is a pure
// function of the hour's global packet set. Safe for concurrent Ingest
// calls (one per upstream connection).
type Aggregator struct {
	mu     sync.Mutex
	cfg    AggregatorConfig
	shards []*aggShard

	liveness *telemetry.Check

	reports trw.ReportSum // merge scratch
}

// NewAggregator builds the merge state for cfg.Shards upstreams.
func NewAggregator(cfg AggregatorConfig) *Aggregator {
	h := cfg.Health
	if h == nil {
		h = telemetry.DefaultHealth()
	}
	a := &Aggregator{
		cfg:      cfg,
		shards:   make([]*aggShard, cfg.Shards),
		liveness: h.Register("cluster-merge", clusterMergeMaxAge),
	}
	for i := range a.shards {
		label := fmt.Sprintf("%d", i)
		a.shards[i] = &aggShard{
			nextSeq:  1,
			last:     math.MinInt64,
			seqGauge: metClusterShardSeq.With(label),
			lagGauge: metClusterShardLag.With(label),
		}
	}
	return a
}

// Ingest consumes one wire frame. A replay of an already applied
// sequence is discarded. A frame that fails validation, skips a
// sequence, or belongs to an hour other than the shard's open one or to
// an hour the shard has closed is refused and not applied: its sequence
// stays open. Every other frame applies at once, and a barrier may
// release one or more merged hours downstream. The frame's payload is
// fully decoded before Ingest returns, so pooled payload buffers may be
// reused immediately.
func (a *Aggregator) Ingest(f wire.Frame) error {
	if f.Version != wire.Version2 {
		return fmt.Errorf("aggregator: frame version %d, want %d", f.Version, wire.Version2)
	}
	if int(f.ShardCount) != len(a.shards) {
		return fmt.Errorf("aggregator: frame from shard %d/%d, want %d shards",
			f.ShardID, f.ShardCount, len(a.shards))
	}
	if int(f.ShardID) >= len(a.shards) {
		return fmt.Errorf("aggregator: shard id %d out of range", f.ShardID)
	}

	// Decode outside the lock: decoding is pure.
	barrier := f.Kind == wire.KindHourEnd
	var ev SamplerEvent
	if !barrier {
		var err error
		if ev, err = DecodeEvent(f); err != nil {
			return err
		}
		// The merge zero-fills every second between an hour's earliest and
		// latest report, so a report is only admissible on a whole second
		// of its own frame's hour — otherwise two frames could span years.
		if ev.Kind == SamplerReport {
			sec := ev.Report.Second
			if off := f.HourEpoch - sec.Unix(); off <= 0 || off > 3600 || sec.Nanosecond() != 0 {
				return fmt.Errorf("aggregator: shard %d report for %s outside the hour ending %s",
					f.ShardID, sec.Format(time.RFC3339Nano), epochString(f.HourEpoch))
			}
		}
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.shards[f.ShardID]
	switch {
	case f.Seq < s.nextSeq:
		metClusterDupFrames.Inc()
		return nil
	case f.Seq > s.nextSeq:
		return fmt.Errorf("aggregator: shard %d sequence gap: frame %d, want %d", f.ShardID, f.Seq, s.nextSeq)
	case f.HourEpoch <= s.last:
		return fmt.Errorf("aggregator: shard %d frame %d is for the hour ending %s, which it has closed",
			f.ShardID, f.Seq, epochString(f.HourEpoch))
	case len(s.open.events) > 0 && f.HourEpoch != s.open.epoch:
		return fmt.Errorf("aggregator: shard %d frame %d is for the hour ending %s while the hour ending %s is open",
			f.ShardID, f.Seq, epochString(f.HourEpoch), epochString(s.open.epoch))
	}
	s.nextSeq++
	s.seqGauge.Set(float64(f.Seq))
	s.open.epoch = f.HourEpoch
	if !barrier {
		s.open.events = append(s.open.events, ev)
		return nil
	}
	s.open.final = f.Flags&wire.FlagFinal != 0
	s.closed = append(s.closed, s.open)
	s.open = aggHour{}
	s.last = f.HourEpoch
	s.lagGauge.Set(float64(len(s.closed)))
	a.tryMerge()
	return nil
}

// epochString names an hour epoch in errors.
func epochString(epoch int64) string {
	return time.Unix(epoch, 0).UTC().Format(time.RFC3339)
}

// tryMerge releases the oldest closed hour while every shard has closed
// it, so hours leave in order. A shard still mid-hour (or silent) holds
// the barrier, which surfaces as rising lag gauges and, eventually, a
// stalled cluster-merge health check. Caller holds the lock.
func (a *Aggregator) tryMerge() {
	for {
		if len(a.shards[0].closed) == 0 {
			return
		}
		epoch := a.shards[0].closed[0].epoch
		for _, s := range a.shards[1:] {
			if len(s.closed) == 0 || s.closed[0].epoch != epoch {
				return
			}
		}
		a.mergeHour(epoch)
	}
}

// mergeHour fuses the shards' oldest closed hours, all at epoch, into
// the canonical single-node stream and emits it. Caller holds the lock.
func (a *Aggregator) mergeHour(epoch int64) {
	final := true
	var merged []SamplerEvent

	// Per-second reports sum across shards (each shard's detector only
	// saw its partition of the source space); everything else is a
	// disjoint union.
	for _, s := range a.shards {
		h := s.closed[0]
		s.closed[0] = aggHour{}
		s.closed = s.closed[1:]
		s.lagGauge.Set(float64(len(s.closed)))
		if !h.final {
			final = false
		}
		for _, ev := range h.events {
			if ev.Kind == SamplerReport {
				a.reports.Add(ev.Report)
			} else {
				merged = append(merged, ev)
			}
		}
	}
	a.reports.Drain(func(rep *trw.SecondReport) {
		merged = append(merged, SamplerEvent{Kind: SamplerReport, Report: rep})
	})

	slices.SortFunc(merged, canonCompare)

	// The final barrier travels under the epoch after the last hour's; its
	// events, the end-of-input flush, belong to the last hour (BackHalf).
	hourEnd := time.Unix(epoch, 0).UTC()
	if final {
		hourEnd = hourEnd.Add(-time.Hour)
	}
	for _, ev := range merged {
		a.cfg.Emit(ev, hourEnd)
	}
	metClusterMergeDepth.Set(float64(len(merged)))
	a.liveness.Beat()
	if a.cfg.OnHourMerged != nil {
		a.cfg.OnHourMerged(hourEnd, final)
	}
}

// PendingHours reports the most closed hours any shard has waiting on
// the barrier — zero when the cluster is in lockstep.
func (a *Aggregator) PendingHours() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	longest := 0
	for _, s := range a.shards {
		longest = max(longest, len(s.closed))
	}
	return longest
}
