package trw

import (
	"runtime"
	"strconv"
	"sync"
	"time"

	"exiot/internal/mbuf"
	"exiot/internal/packet"
	"exiot/internal/telemetry"
)

// Telemetry handles for the sharded-detection stage (see
// docs/OPERATIONS.md). Per-shard series are cached on the shard structs;
// only family registration happens here.
var (
	metShardQueueDepth = telemetry.Default().GaugeVec("exiot_trw_shard_queue_depth",
		"Buffered batches on one detector shard's input queue (backlog).", "shard")
	metShardFlowTable = telemetry.Default().GaugeVec("exiot_trw_shard_flow_table_size",
		"Tracked source-flow entries in one detector shard's state table.", "shard")
	metMergedEvents = telemetry.Default().Counter("exiot_trw_merged_events_total",
		"Detector events delivered through the deterministic shard merge.")
)

const (
	// shardBatchSize is how many packets the coordinator groups before
	// handing them to a shard. Batching amortizes queue synchronization
	// over hundreds of packets, keeping the per-packet routing cost to a
	// hash and an append.
	shardBatchSize = 512
	// shardQueueDepth bounds the per-shard batch queue. A full queue
	// blocks the coordinator (back-pressure), so a slow shard cannot be
	// buried under an unbounded backlog.
	shardQueueDepth = 8
	// maxShards is a sanity cap on the shard count.
	maxShards = 256
)

// ShardedDetector runs TRW detection across multiple Detector shards,
// partitioning sources by a hash of their address so that every packet of
// a given source is processed by exactly one shard, in arrival order. The
// TRW walk is purely per-source state, which makes the partition exact:
// each shard is byte-for-byte the serial detector restricted to its slice
// of the source space.
//
// Events are buffered shard-locally and surface at the EndHour/Flush
// barriers: flow events as the disjoint union of the shards' events,
// per-second reports summed across shards with gap seconds zero-filled
// (ReportSum). That is the same event *set* one serial Detector fed the
// same packets would emit; the emission order is unspecified — consumers
// that need an order impose one from event content (the pipeline's
// canonical order), which is what makes goroutine shards and node shards
// interchangeable.
//
// The coordinator methods (ProcessBatch, EndHour, Flush, Stats, Close)
// must be called from a single goroutine, like the serial Detector's.
type ShardedDetector struct {
	emit   func(Event)
	shards []*shard
	wg     sync.WaitGroup

	// Reused coordinator scratch: per-shard routing batches (the slices
	// themselves come from shardBatchPool and are returned by the shard
	// goroutines), the per-second report accumulator, and the barrier
	// channel.
	routeBufs   [][]*packet.Packet
	reports     ReportSum
	barrierDone chan struct{}

	closed bool
}

type opKind int

const (
	opProcess opKind = iota + 1
	opEndHour
	opFlush
	opBarrier
)

// shardOp is one unit of work on a shard's queue.
type shardOp struct {
	kind opKind
	pkts []*packet.Packet // opProcess
	ts   time.Time        // opEndHour / opFlush
	done chan struct{}    // opBarrier
}

// shard owns one Detector plus the event buffers it fills between
// barriers. The buffers are written only by the shard goroutine and read
// by the coordinator only after a barrier, so the queue's happens-before
// edges are the only synchronization needed.
type shard struct {
	det     *Detector
	in      *mbuf.Buffer[shardOp]
	events  []Event
	reports []SecondReport

	// Cached telemetry series for this shard (vec lookups are too
	// expensive for the routing hot path).
	queueDepth *telemetry.Gauge
	flowTable  *telemetry.Gauge
}

func (s *shard) collect(e Event) {
	if e.Kind == EventSecondReport {
		s.reports = append(s.reports, *e.Report)
		return
	}
	s.events = append(s.events, e)
}

func (s *shard) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		op, ok := s.in.Pop()
		if !ok {
			return
		}
		switch op.kind {
		case opProcess:
			for _, p := range op.pkts {
				s.det.Process(p)
			}
			putShardBatch(op.pkts)
		case opEndHour:
			s.det.EndHour(op.ts)
		case opFlush:
			s.det.Flush(op.ts)
		case opBarrier:
			op.done <- struct{}{}
		}
	}
}

// NewShardedDetector creates a detector with the given number of shards
// delivering merged events to emit. workers <= 0 selects GOMAXPROCS.
func NewShardedDetector(cfg Config, workers int, emit func(Event)) *ShardedDetector {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > maxShards {
		workers = maxShards
	}
	d := &ShardedDetector{
		emit:        emit,
		shards:      make([]*shard, workers),
		routeBufs:   make([][]*packet.Packet, workers),
		barrierDone: make(chan struct{}, workers),
	}
	for i := range d.shards {
		label := strconv.Itoa(i)
		s := &shard{
			in:         mbuf.New[shardOp](shardQueueDepth),
			queueDepth: metShardQueueDepth.With(label),
			flowTable:  metShardFlowTable.With(label),
		}
		s.det = newDetector(cfg, label, s.collect)
		// collect copies the report struct before the detector reuses it,
		// and deliver folds the flat port tallies out of the detector's
		// arena at the barrier, so shard detectors can recycle both.
		s.det.recycleReports = true
		d.shards[i] = s
		d.wg.Add(1)
		go s.run(&d.wg)
	}
	return d
}

// NumShards returns the shard count.
func (d *ShardedDetector) NumShards() int { return len(d.shards) }

// ShardIndex spreads the 32-bit source address over n shards with a
// Fibonacci multiplicative hash, so adjacent addresses (a scanning /24,
// say) do not pile onto one shard. It is exported because it defines
// shard *ownership* for the whole system: a multi-node telescope
// deployment partitions source space with the same function
// (`flowsampler -shard i/N` keeps exactly the packets where
// ShardIndex(src, N) == i), which is what makes the cluster merge
// byte-identical to a single-node run.
func ShardIndex(ip packet.IP, n int) int {
	h := uint64(uint32(ip)) * 0x9E3779B97F4A7C15
	return int((h >> 32) % uint64(n))
}

// ProcessBatch routes a slice of telescope packets (non-decreasing
// timestamps, continuing the stream of previous calls) to the shards.
// Triggered events are buffered and surface at the next EndHour or Flush
// barrier.
func (d *ShardedDetector) ProcessBatch(pkts []packet.Packet) {
	if len(pkts) == 0 || d.closed {
		return
	}
	n := len(d.shards)
	batches := d.routeBufs
	for i := range pkts {
		p := &pkts[i]
		si := ShardIndex(p.SrcIP, n)
		if batches[si] == nil {
			batches[si] = newShardBatch()
		}
		batches[si] = append(batches[si], p)
		if len(batches[si]) == shardBatchSize {
			s := d.shards[si]
			s.in.Push(shardOp{kind: opProcess, pkts: batches[si]})
			s.queueDepth.Set(float64(s.in.Len()))
			batches[si] = nil
		}
	}
	for si, b := range batches {
		if len(b) > 0 {
			s := d.shards[si]
			s.in.Push(shardOp{kind: opProcess, pkts: b})
			s.queueDepth.Set(float64(s.in.Len()))
		}
		batches[si] = nil
	}
}

// EndHour drains the shards, runs the hourly sweep on each, and delivers
// everything since the previous barrier. Like the serial detector, each
// shard's in-flight second flushes at the barrier, so every hour's events
// are self-contained.
func (d *ShardedDetector) EndHour(now time.Time) {
	d.endBarrier(opEndHour, now)
}

// Flush delivers the pending per-second reports and ends every live scan
// flow. Call once at end of input.
func (d *ShardedDetector) Flush(now time.Time) {
	d.endBarrier(opFlush, now)
}

// endBarrier queues the sweep on every shard, waits for the shards to go
// idle, and hands their buffers to emit on the caller's goroutine: each
// shard's flow events, then the per-second reports summed across shards
// (a shard that saw no packet in some second contributes nothing to it;
// seconds no shard reported inside the hour's span come out zero). The
// shard-local port tallies are flat pairs in each detector's arena
// (recycleReports); folding them here and truncating the arenas makes a
// whole hour of per-shard reports allocation-free.
func (d *ShardedDetector) endBarrier(sweep opKind, now time.Time) {
	if d.closed {
		return
	}
	for _, s := range d.shards {
		s.in.Push(shardOp{kind: sweep, ts: now})
	}
	d.barrier()
	emit := func(e Event) {
		metMergedEvents.Inc()
		d.emit(e)
	}
	for _, s := range d.shards {
		for i := range s.events {
			emit(s.events[i])
		}
		// Events were handed downstream; keeping them referenced would
		// pin sample slabs.
		clear(s.events)
		s.events = s.events[:0]
		pairs := s.det.portPairs
		for i := range s.reports {
			r := &s.reports[i]
			d.reports.add(r, pairs[r.pairOff:r.pairOff+r.pairLen])
		}
		s.reports = s.reports[:0]
		s.det.portPairs = pairs[:0]
	}
	d.reports.Drain(func(rep *SecondReport) {
		emit(Event{Kind: EventSecondReport, Report: rep})
	})
}

// barrier waits until every shard has executed all queued work, then
// refreshes the per-shard telemetry gauges (queues drained, state tables
// readable without racing the shard goroutines).
func (d *ShardedDetector) barrier() {
	done := d.barrierDone
	for _, s := range d.shards {
		s.in.Push(shardOp{kind: opBarrier, done: done})
	}
	for range d.shards {
		<-done
	}
	for _, s := range d.shards {
		s.queueDepth.Set(float64(s.in.Len()))
		s.flowTable.Set(float64(s.det.ActiveSources()))
	}
}

// Stats returns lifetime counters aggregated across shards.
func (d *ShardedDetector) Stats() Stats {
	if !d.closed {
		d.barrier()
	}
	var out Stats
	for _, s := range d.shards {
		st := s.det.Stats()
		out.Processed += st.Processed
		out.Backscatter += st.Backscatter
		out.ScannersFound += st.ScannersFound
		out.SamplesEmitted += st.SamplesEmitted
		out.FlowsEnded += st.FlowsEnded
		out.ActiveSources += st.ActiveSources
	}
	return out
}

// Close stops the shard goroutines. The detector accepts no work after
// Close; Stats remains readable. Close is idempotent.
func (d *ShardedDetector) Close() {
	if d.closed {
		return
	}
	d.closed = true
	for _, s := range d.shards {
		s.in.Close()
	}
	d.wg.Wait()
}
