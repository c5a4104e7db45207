// Package feedserve is the CTI feed's distribution read path: an
// immutable, atomically-swapped in-memory snapshot of the feed rebuilt
// from the document store's Export hooks on change. Reads never take a
// lock — they load the current snapshot pointer and serve pre-marshaled
// bytes — while a single background rebuilder turns store mutations
// into fresh snapshots, precomputed gzip'd bulk exports, and SSE record
// deltas for subscribers. This is how operational telescope feeds
// (GreyNoise/DShield-style) serve millions of consumers: snapshots for
// bulk, sequence-numbered deltas for freshness.
package feedserve

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"exiot/internal/feed"
	"exiot/internal/store"
	"exiot/internal/telemetry"
)

// Telemetry handles for the feed-serving layer (see docs/OPERATIONS.md).
var (
	// layerFeedserve times rebuilds; items are the snapshot's records.
	layerFeedserve = telemetry.Default().Layer("feedserve")
	metSnapRecords = telemetry.Default().Gauge("exiot_feedserve_snapshot_records",
		"Records in the current feed snapshot.")
	metSnapSeq = telemetry.Default().Gauge("exiot_feedserve_snapshot_seq",
		"Highest change-sequence number assigned by the snapshot builder.")
	metSnapBuilt = telemetry.Default().Gauge("exiot_feedserve_snapshot_built_unix",
		"Wall-clock unix time the current snapshot was built (age = now - this).")
	metExportBytes = telemetry.Default().GaugeVec("exiot_feedserve_export_bytes",
		"Size of the precomputed bulk export, by encoding (raw|gzip).", "encoding")
	metSSEClients = telemetry.Default().Gauge("exiot_feedserve_sse_clients",
		"Currently connected SSE delta subscribers.")
	metSSEEvents = telemetry.Default().Counter("exiot_feedserve_sse_events_total",
		"Record-delta events delivered to SSE subscriber queues.")
	metSSEDropped = telemetry.Default().Counter("exiot_feedserve_sse_dropped_total",
		"SSE subscribers disconnected for not draining their event queue.")
)

// Config parameterizes the cache.
type Config struct {
	// RebuildEvery is the minimum interval between background snapshot
	// rebuilds — the export precompute cadence. Writes landing inside
	// the interval are coalesced into the next rebuild. 0 means the
	// 2-second default.
	RebuildEvery time.Duration
	// Clock stamps snapshots (tests inject a fixed one; nil = time.Now).
	Clock func() time.Time
}

// subscriberBuffer bounds each SSE subscriber's undelivered-event queue;
// a consumer that falls further behind is disconnected and expected to
// reconnect with Last-Event-ID.
const subscriberBuffer = 256

// Event is one record delta for SSE push: the record's change sequence
// plus the fully rendered text/event-stream frame.
type Event struct {
	Seq   uint64
	Frame []byte
}

// Subscriber is one SSE consumer's delivery queue. Read events from C;
// the channel closes when the cache shuts down or the subscriber is
// dropped for lagging.
type Subscriber struct {
	C  <-chan Event
	ch chan Event
}

// Cache maintains the feed's read snapshot over a historical-database
// collection. The read path (Current) is one atomic pointer load; the
// write path marks the cache dirty from the store's mutation hook and a
// background goroutine (Start) rebuilds at most once per RebuildEvery.
type Cache struct {
	coll *store.Collection[feed.Record]
	cfg  Config

	snap  atomic.Pointer[Snapshot]
	dirty atomic.Bool
	wake  chan struct{}
	done  chan struct{}
	once  sync.Once

	// mu serializes rebuilds (single-flight) and guards the subscriber
	// set; it is never taken on the snapshot read path.
	mu          sync.Mutex
	lastSeq     uint64
	lastRebuild time.Time
	subs        map[*Subscriber]struct{}
	onRebuild   []func(*Snapshot)
}

// New builds a cache over the feed collection, attaches its
// invalidation hook to the collection's mutation stream, and performs
// the initial snapshot build. Call Start to enable background rebuilds
// (tests may drive Rebuild directly instead).
func New(coll *store.Collection[feed.Record], cfg Config) *Cache {
	if cfg.RebuildEvery <= 0 {
		cfg.RebuildEvery = 2 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	c := &Cache{
		coll: coll,
		cfg:  cfg,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
		subs: make(map[*Subscriber]struct{}),
	}
	// The hook runs under the store's lock: just flip the flag and nudge
	// the rebuilder — never call back into the store from here.
	coll.AddHook(func(store.Mutation) { c.Invalidate() })
	c.Rebuild()
	return c
}

// Current returns the live snapshot. Zero locks: one atomic load. The
// snapshot is immutable and stays valid indefinitely; it may lag the
// store by up to RebuildEvery.
func (c *Cache) Current() *Snapshot { return c.snap.Load() }

// Invalidate marks the snapshot stale and wakes the rebuilder. Safe to
// call from anywhere, including under the store's lock.
func (c *Cache) Invalidate() {
	c.dirty.Store(true)
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// Start launches the background rebuild loop: woken by Invalidate,
// rate-limited to one rebuild per RebuildEvery, stopped by Close.
func (c *Cache) Start() {
	go func() {
		for {
			select {
			case <-c.done:
				return
			case <-c.wake:
			}
			c.mu.Lock()
			last := c.lastRebuild
			c.mu.Unlock()
			if wait := c.cfg.RebuildEvery - time.Since(last); wait > 0 {
				select {
				case <-c.done:
					return
				case <-time.After(wait):
				}
			}
			if c.dirty.Load() {
				c.Rebuild()
			}
		}
	}()
}

// Close stops the rebuild loop and disconnects every subscriber.
func (c *Cache) Close() {
	c.once.Do(func() {
		close(c.done)
		c.mu.Lock()
		defer c.mu.Unlock()
		for sub := range c.subs {
			close(sub.ch)
			delete(c.subs, sub)
		}
		metSSEClients.Set(0)
	})
}

// OnRebuild registers fn to run after every successful snapshot swap
// with the new snapshot. Hooks run outside the cache's rebuild lock (a
// hook may subscribe or trigger another rebuild without deadlocking) on
// the rebuilding goroutine, so a slow hook delays subsequent rebuilds
// but never the snapshot read path. Register hooks before Start.
func (c *Cache) OnRebuild(fn func(*Snapshot)) {
	c.mu.Lock()
	c.onRebuild = append(c.onRebuild, fn)
	c.mu.Unlock()
}

// Rebuild synchronously exports the collection, builds a fresh
// snapshot, swaps it in, broadcasts the delta to SSE subscribers, and
// fires the OnRebuild hooks. Returns the new snapshot. Concurrent
// callers are serialized.
func (c *Cache) Rebuild() *Snapshot {
	snap, hooks := c.rebuild()
	if snap != nil {
		for _, fn := range hooks {
			fn(snap)
		}
	}
	return snap
}

func (c *Cache) rebuild() (*Snapshot, []func(*Snapshot)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	// Clear before exporting: a mutation racing the export re-marks the
	// cache dirty and re-wakes the loop, so nothing is lost — the next
	// pass picks it up.
	c.dirty.Store(false)
	prev := c.snap.Load()
	prevLast := uint64(0)
	if prev != nil {
		prevLast = prev.LastSeq()
	}
	snap, err := buildSnapshot(c.coll.Export(), prev, &c.lastSeq, c.cfg.Clock())
	if err != nil {
		// feed.Record always marshals; treat failure as "keep serving
		// the previous snapshot" rather than poisoning the read path.
		c.dirty.Store(true)
		return prev, nil
	}
	c.snap.Store(snap)
	c.lastRebuild = time.Now()

	layerFeedserve.Add(c.lastRebuild.Sub(start), snap.Len())
	metSnapRecords.Set(float64(snap.Len()))
	metSnapSeq.Set(float64(snap.LastSeq()))
	metSnapBuilt.Set(float64(snap.BuiltAt().Unix()))
	metExportBytes.With("raw").Set(float64(len(snap.ExportNDJSON())))
	metExportBytes.With("gzip").Set(float64(len(snap.ExportGzip())))

	if len(c.subs) > 0 {
		c.broadcastLocked(snap, prevLast)
	}
	return snap, c.onRebuild
}

// broadcastLocked pushes every item newer than prevLast to each
// subscriber. Caller holds c.mu. A subscriber whose queue is full is
// dropped (channel closed) — SSE consumers reconnect with Last-Event-ID
// and replay what they missed from the then-current snapshot.
func (c *Cache) broadcastLocked(snap *Snapshot, prevLast uint64) {
	fresh := snap.ItemsSince(prevLast)
	if len(fresh) == 0 {
		return
	}
	events := make([]Event, len(fresh))
	for i, it := range fresh {
		events[i] = Event{Seq: it.Seq, Frame: frame(it.Seq, it.Line)}
	}
	for sub := range c.subs {
		if !trySend(sub.ch, events) {
			close(sub.ch)
			delete(c.subs, sub)
			metSSEClients.Add(-1)
			metSSEDropped.Inc()
		}
	}
}

// trySend queues events without blocking; false means the queue filled.
func trySend(ch chan Event, events []Event) bool {
	for _, ev := range events {
		select {
		case ch <- ev:
			metSSEEvents.Inc()
		default:
			return false
		}
	}
	return true
}

// Subscribe registers an SSE consumer resuming after change-sequence
// `since` (0 = everything). It returns the replay — every record the
// current snapshot holds beyond the cursor, already framed — plus the
// live queue for deltas broadcast after this call. Registration and
// replay capture happen under one lock acquisition, so no rebuild can
// slip between them: an event is either in the replay or on the queue.
func (c *Cache) Subscribe(since uint64) ([]Event, *Subscriber) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var replay []Event
	if snap := c.snap.Load(); snap != nil {
		for _, it := range snap.ItemsSince(since) {
			replay = append(replay, Event{Seq: it.Seq, Frame: frame(it.Seq, it.Line)})
		}
	}
	ch := make(chan Event, subscriberBuffer)
	sub := &Subscriber{C: ch, ch: ch}
	select {
	case <-c.done:
		// Cache already closed: hand back a closed queue so the consumer
		// terminates immediately after the replay.
		close(ch)
	default:
		c.subs[sub] = struct{}{}
		metSSEClients.Add(1)
	}
	return replay, sub
}

// Unsubscribe removes a subscriber registered with Subscribe. Safe to
// call after the subscriber was already dropped or the cache closed.
func (c *Cache) Unsubscribe(sub *Subscriber) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.subs[sub]; ok {
		delete(c.subs, sub)
		metSSEClients.Add(-1)
	}
}

// frame renders one record delta as a text/event-stream frame. The id
// field carries the change sequence so reconnecting consumers resume
// with Last-Event-ID.
func frame(seq uint64, line []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "id: %d\nevent: record\ndata: ", seq)
	b.Write(bytes.TrimRight(line, "\n"))
	b.WriteString("\n\n")
	return b.Bytes()
}
