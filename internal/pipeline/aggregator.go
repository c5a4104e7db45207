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
	metClusterShardPending = telemetry.Default().GaugeVec("exiot_cluster_shard_pending_frames",
		"Frames from one shard buffered out-of-order, waiting for a sequence gap to fill.", "shard")
	metClusterShardLag = telemetry.Default().GaugeVec("exiot_cluster_shard_lag_hours",
		"Hours one shard has completed that the merge barrier is still holding (another shard is behind).", "shard")
	metClusterMergeDepth = telemetry.Default().Gauge("exiot_cluster_merge_depth_events",
		"Events merged in the most recently completed cluster hour.")
	metClusterHoursMerged = telemetry.Default().Counter("exiot_cluster_hours_merged_total",
		"Hours fully merged across all ingest shards and released downstream.")
	metClusterDupFrames = telemetry.Default().Counter("exiot_cluster_frames_duplicate_total",
		"Replayed frames discarded by per-shard sequence tracking (reconnect replays).")
	metClusterReordered = telemetry.Default().Counter("exiot_cluster_frames_reordered_total",
		"Frames that arrived ahead of a sequence gap and were buffered for reordering.")
)

// clusterMergeMaxAge is how long the cluster health check tolerates no
// completed merge before /healthz reports the merge stalled — the
// operational signature of a silent (crashed, partitioned) ingest shard
// holding the hour barrier.
const clusterMergeMaxAge = 15 * time.Minute

// AggregatorConfig configures the cluster-side deterministic merge.
type AggregatorConfig struct {
	// Shards is the expected shard count N; every incoming frame must
	// carry ShardCount == N and ShardID < N.
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

// aggShard is the per-upstream reorder and hour-assembly state.
type aggShard struct {
	nextSeq uint64              // next sequence to apply (first is 1)
	pending map[uint64]aggFrame // decoded frames ahead of a gap
	hours   map[int64]*aggHour  // open hours, keyed by hour epoch
	done    map[int64]*aggHour  // barrier-closed hours awaiting merge
	doneQ   []int64             // sorted epochs of done hours

	seqGauge     *telemetry.Gauge
	pendingGauge *telemetry.Gauge
	lagGauge     *telemetry.Gauge
}

// aggFrame is one decoded frame waiting in sequence order.
type aggFrame struct {
	barrier bool
	final   bool
	epoch   int64
	ev      SamplerEvent
}

// aggHour is one shard's event buffer for one hour.
type aggHour struct {
	events []SamplerEvent
	final  bool
}

// Aggregator k-way merges the event streams of N ingest shards into the
// single canonical stream a one-node telescope would produce. Each
// shard's frames are reordered by their per-shard sequence (reconnect
// replays are dropped, gaps are awaited), buffered per hour epoch, and
// released only when *every* shard has delivered its KindHourEnd barrier
// for that hour — then the shards' per-second reports are summed and
// gap-filled (trw.ReportSum) and the union sorted into canonical order,
// so the merge output is a pure function of the hour's global packet set.
// Safe for concurrent Ingest calls (one per upstream connection).
type Aggregator struct {
	mu     sync.Mutex
	cfg    AggregatorConfig
	shards []*aggShard

	liveness *telemetry.Check

	reports trw.ReportSum // merge scratch
}

// NewAggregator builds the merge state for cfg.Shards upstreams.
func NewAggregator(cfg AggregatorConfig) *Aggregator {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
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
			nextSeq:      1,
			pending:      make(map[uint64]aggFrame),
			hours:        make(map[int64]*aggHour),
			done:         make(map[int64]*aggHour),
			seqGauge:     metClusterShardSeq.With(label),
			pendingGauge: metClusterShardPending.With(label),
			lagGauge:     metClusterShardLag.With(label),
		}
	}
	return a
}

// Ingest consumes one wire frame. Duplicates (replays of an already
// applied sequence) are discarded; frames beyond a sequence gap are
// buffered until the gap fills; everything else lands in its hour's
// buffer, and a completed hour barrier may release one or more merged
// hours downstream. A frame that fails validation is not applied (its
// sequence stays open, so the shard's hour never closes on a hole). The
// frame's payload is fully decoded before Ingest returns, so pooled
// payload buffers may be reused immediately.
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

	// Decode outside the lock: decoding is pure, and the payloads of
	// buffered frames must be copied out before the receiver recycles
	// them anyway.
	df := aggFrame{epoch: f.HourEpoch}
	switch f.Kind {
	case wire.KindHourEnd:
		df.barrier = true
		df.final = f.Flags&wire.FlagFinal != 0
	default:
		ev, err := DecodeEvent(f)
		if err != nil {
			return err
		}
		// The merge zero-fills every second between an hour's earliest and
		// latest report, so a report is only admissible on a whole second
		// of its own frame's hour — otherwise two frames could span years.
		if ev.Kind == SamplerReport {
			sec := ev.Report.Second
			if off := f.HourEpoch - sec.Unix(); off <= 0 || off > 3600 || sec.Nanosecond() != 0 {
				return fmt.Errorf("aggregator: shard %d report for %s outside the hour ending %s",
					f.ShardID, sec.Format(time.RFC3339Nano), time.Unix(f.HourEpoch, 0).UTC().Format(time.RFC3339))
			}
		}
		df.ev = ev
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.shards[f.ShardID]
	if f.Seq < s.nextSeq {
		metClusterDupFrames.Inc()
		return nil
	}
	if f.Seq > s.nextSeq {
		if _, dup := s.pending[f.Seq]; dup {
			metClusterDupFrames.Inc()
			return nil
		}
		s.pending[f.Seq] = df
		metClusterReordered.Inc()
		s.pendingGauge.Set(float64(len(s.pending)))
		return nil
	}

	// In order: apply, then drain whatever the gap was holding back.
	a.apply(s, df)
	for {
		next, ok := s.pending[s.nextSeq]
		if !ok {
			break
		}
		delete(s.pending, s.nextSeq)
		a.apply(s, next)
	}
	s.seqGauge.Set(float64(s.nextSeq - 1))
	s.pendingGauge.Set(float64(len(s.pending)))
	a.tryMerge()
	return nil
}

// apply folds one in-sequence frame into its hour buffer (or closes the
// hour on a barrier). Caller holds the lock.
func (a *Aggregator) apply(s *aggShard, df aggFrame) {
	s.nextSeq++
	if df.barrier {
		h := s.hours[df.epoch]
		if h == nil {
			h = &aggHour{} // an hour with no events still closes
		}
		delete(s.hours, df.epoch)
		h.final = df.final
		s.done[df.epoch] = h
		s.doneQ = append(s.doneQ, df.epoch)
		slices.Sort(s.doneQ)
		s.lagGauge.Set(float64(len(s.doneQ)))
		return
	}
	h := s.hours[df.epoch]
	if h == nil {
		h = &aggHour{}
		s.hours[df.epoch] = h
	}
	h.events = append(h.events, df.ev)
}

// tryMerge releases every hour all shards have completed, oldest first.
// Caller holds the lock.
func (a *Aggregator) tryMerge() {
	for {
		// Candidate: the oldest completed hour anywhere. It merges only
		// once every shard has completed it; a shard still mid-hour (or
		// silent) holds the barrier, which surfaces as rising lag gauges
		// and, eventually, a stalled cluster-merge health check.
		epoch := int64(math.MaxInt64)
		for _, s := range a.shards {
			if len(s.doneQ) > 0 && s.doneQ[0] < epoch {
				epoch = s.doneQ[0]
			}
		}
		if epoch == math.MaxInt64 {
			return
		}
		for _, s := range a.shards {
			if s.done[epoch] == nil {
				return
			}
		}
		a.mergeHour(epoch)
	}
}

// mergeHour fuses all shards' buffers for epoch into the canonical
// single-node stream and emits it. Caller holds the lock.
func (a *Aggregator) mergeHour(epoch int64) {
	final := true
	var merged []SamplerEvent

	// Per-second reports sum across shards (each shard's detector only
	// saw its partition of the source space); everything else is a
	// disjoint union.
	for _, s := range a.shards {
		h := s.done[epoch]
		delete(s.done, epoch)
		s.doneQ = s.doneQ[1:] // epoch is each shard's oldest completed
		s.lagGauge.Set(float64(len(s.doneQ)))
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
	metClusterHoursMerged.Inc()
	a.liveness.Beat()
	if a.cfg.OnHourMerged != nil {
		a.cfg.OnHourMerged(hourEnd, final)
	}
}

// PendingHours reports how many completed-but-unmerged hours the slowest
// and fastest shards are apart — zero when the cluster is in lockstep.
func (a *Aggregator) PendingHours() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	maxLag := 0
	for _, s := range a.shards {
		if len(s.doneQ) > maxLag {
			maxLag = len(s.doneQ)
		}
	}
	return maxLag
}
