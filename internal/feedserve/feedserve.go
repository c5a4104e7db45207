// Package feedserve is the CTI feed's distribution read path: an
// immutable, atomically-swapped in-memory snapshot of the feed rebuilt
// from the document store on change. Reads never take a lock — they
// load the current snapshot pointer and serve pre-marshaled bytes —
// while a single background rebuilder turns store mutations into fresh
// snapshots. A snapshot is a list of blocks of records, and a rebuild
// shares every block whose records did not change with the previous
// snapshot, so it allocates what changed. A snapshot's gzip export is
// built on the first request for it, from the blocks' deflate streams.
// Every read of changes, a cursor page or an event stream alike, walks
// the newest snapshot's sequence index from the reader's cursor. This
// is how operational telescope feeds (GreyNoise/DShield-style) serve
// millions of consumers: snapshots for bulk, sequence-numbered deltas
// for freshness.
package feedserve

import (
	"bytes"
	"context"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"exiot/internal/feed"
	"exiot/internal/store"
	"exiot/internal/telemetry"
)

// Telemetry handles for the feed-serving layer (see docs/OPERATIONS.md).
var (
	// layerFeedserve times rebuilds, whose items are the snapshot's
	// records, and gzip exports built on request, with no items.
	layerFeedserve = telemetry.Default().Layer("feedserve")
	metSnapRecords = telemetry.Default().Gauge("exiot_feedserve_snapshot_records",
		"Records in the current feed snapshot.")
	metSnapSeq = telemetry.Default().Gauge("exiot_feedserve_snapshot_seq",
		"Highest change-sequence number assigned by the snapshot builder.")
	metSnapBuilt = telemetry.Default().Gauge("exiot_feedserve_snapshot_built_unix",
		"Wall-clock unix time the current snapshot was built (age = now - this).")
	metExportBytes = telemetry.Default().GaugeVec("exiot_feedserve_export_bytes",
		"Size of the bulk export, by encoding (raw at each rebuild, gzip when a gzip export is built).", "encoding")
	metSSEClients = telemetry.Default().Gauge("exiot_feedserve_sse_clients",
		"Open record event streams.")
	metSSEEvents = telemetry.Default().Counter("exiot_feedserve_sse_events_total",
		"Record frames written to event streams.")
)

// Config parameterizes the cache.
type Config struct {
	// RebuildEvery is the minimum interval between background snapshot
	// rebuilds — the snapshot cadence. Writes landing inside
	// the interval are coalesced into the next rebuild. 0 means the
	// 2-second default.
	RebuildEvery time.Duration
	// Clock stamps snapshots (tests inject a fixed one; nil = time.Now).
	Clock func() time.Time
}

// streamPage is how many records an event stream takes from a snapshot
// at a time: see DESIGN.md "Settings".
const streamPage = 256

// heartbeat is the keepalive cadence of an idle event stream: a comment
// frame that lets both sides detect a dead peer.
const heartbeat = 15 * time.Second

// Cache maintains the feed's read snapshot over a historical-database
// collection. The read path (Current) is one atomic pointer load; the
// write path marks the cache dirty from the store's mutation hook and a
// background goroutine (Start) rebuilds at most once per RebuildEvery.
type Cache struct {
	coll *store.Collection[feed.Record]
	cfg  Config

	snap atomic.Pointer[Snapshot]
	// published is closed once the snapshot after the current one is
	// published, and then replaced: event streams wait on it.
	published atomic.Pointer[chan struct{}]
	dirty     atomic.Bool
	wake      chan struct{}
	done      chan struct{}
	once      sync.Once

	// mu serializes rebuilds (single-flight) and guards the hooks; no
	// read of a snapshot, an event stream's included, takes it.
	mu          sync.Mutex
	lastSeq     uint64
	lastRebuild time.Time
	build       *builder
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
		coll:  coll,
		cfg:   cfg,
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
		build: newBuilder(),
	}
	next := make(chan struct{})
	c.published.Store(&next)
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

// Close stops the rebuild loop. Each event stream ends once it has
// written the snapshot current then.
func (c *Cache) Close() {
	c.once.Do(func() { close(c.done) })
}

// OnRebuild registers fn to run after every successful snapshot swap
// with the new snapshot. Hooks run outside the cache's rebuild lock (a
// hook may call back into the cache or trigger another rebuild without
// deadlocking) on the rebuilding goroutine, so a slow hook delays
// subsequent rebuilds but never the snapshot read path. Register hooks
// before Start.
func (c *Cache) OnRebuild(fn func(*Snapshot)) {
	c.mu.Lock()
	c.onRebuild = append(c.onRebuild, fn)
	c.mu.Unlock()
}

// Rebuild synchronously exports the collection, builds a fresh
// snapshot, swaps it in, wakes the event streams, and fires the
// OnRebuild hooks. Returns the new snapshot. Concurrent callers are
// serialized.
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
	docs := c.coll.ExportChanged(c.build.see)
	snap, err := c.build.build(prev, docs, &c.lastSeq, c.cfg.Clock())
	if err != nil {
		// feed.Record always marshals; treat failure as "keep serving
		// the previous snapshot" rather than poisoning the read path.
		c.dirty.Store(true)
		return prev, nil
	}
	c.snap.Store(snap)
	next := make(chan struct{})
	close(*c.published.Swap(&next))
	c.lastRebuild = time.Now()

	layerFeedserve.Add(c.lastRebuild.Sub(start), snap.Len())
	metSnapRecords.Set(float64(snap.Len()))
	metSnapSeq.Set(float64(snap.LastSeq()))
	metSnapBuilt.Set(float64(snap.BuiltAt().Unix()))
	metExportBytes.With("raw").Set(float64(snap.Size()))
	return snap, c.onRebuild
}

// Follow writes the feed to w as server-sent "record" events, one per
// record after change sequence cursor, in sequence order: first from
// the current snapshot, then from each snapshot published after it,
// flushing after each. Its id field carries the record's sequence, which
// a reconnecting consumer sends back as its cursor. A record that
// changed more than once since the stream last caught up is written
// once, at its latest sequence. An idle stream writes a keepalive comment
// every heartbeat, and calls onTick whenever tick fires (a nil tick
// never does). Follow returns when ctx ends or a write fails, and once
// it has written the snapshot current when the cache closes. A nil cache
// follows no feed: its stream carries ticks and keepalives only.
//
// Follow takes no lock: a stream holds one page of one snapshot, never
// a queue or a copy of the feed.
func (c *Cache) Follow(ctx context.Context, w io.Writer, flush func(), cursor uint64, tick <-chan time.Time, onTick func() error) {
	var published, done <-chan struct{}
	if c != nil {
		done = c.done
		metSSEClients.Add(1)
		defer metSSEClients.Add(-1)
	}
	beat := time.NewTicker(heartbeat)
	defer beat.Stop()
	var buf []byte
	for closing := false; ; {
		var err error
		if c != nil {
			// The signal before the snapshot: a snapshot published
			// between the two loads wakes the stream again.
			published = *c.published.Load()
			if cursor, buf, err = c.writeAfter(w, cursor, buf); err != nil {
				return
			}
		}
		flush()
		if closing {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-done:
			closing = true
		case <-published:
		case <-beat.C:
			_, err = io.WriteString(w, ": keepalive\n\n")
		case <-tick:
			err = onTick()
		}
		if err != nil {
			return
		}
	}
}

// writeAfter writes one event frame to w for each record after cursor
// in the current snapshot, a page at a time with the snapshot loaded
// afresh for each page, and returns the sequence of the last one
// written. buf holds one frame; it is returned grown for the next call.
func (c *Cache) writeAfter(w io.Writer, cursor uint64, buf []byte) (uint64, []byte, error) {
	for {
		snap := c.Current()
		if snap == nil {
			return cursor, buf, nil
		}
		page := snap.ItemsAfter(cursor, streamPage, nil)
		for _, it := range page {
			buf = strconv.AppendUint(append(buf[:0], "id: "...), it.Seq, 10)
			buf = append(buf, "\nevent: record\ndata: "...)
			buf = append(append(buf, bytes.TrimRight(it.Line, "\n")...), "\n\n"...)
			if _, err := w.Write(buf); err != nil {
				return cursor, buf, err
			}
			cursor = it.Seq
			metSSEEvents.Inc()
		}
		if len(page) < streamPage {
			return cursor, buf, nil
		}
	}
}
