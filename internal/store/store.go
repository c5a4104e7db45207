// Package store provides eX-IoT's document store as an in-memory,
// concurrency-safe substitute for MongoDB: a collection keyed by
// Mongo-style ObjectIDs with a lapsing retention window (the two-week
// historical database, whose Active records are the latest threat
// information). The paper's third store, the Redis ObjectID cache for
// END_FLOW updates, is the feed server's live-flow index.
package store

import (
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"exiot/internal/telemetry"
)

// Telemetry handles for the database stage (see docs/OPERATIONS.md).
// Counts aggregate across collections.
var (
	metStoreInserts = telemetry.Default().CounterVec("exiot_store_ops_total",
		"Document-store operations, by op (insert|update|expire).", "op")
	opInsert = metStoreInserts.With("insert")
	opUpdate = metStoreInserts.With("update")
	opExpire = metStoreInserts.With("expire")
)

// ObjectID is a Mongo-shaped document identifier: 4 bytes of unix time,
// 8 bytes of process-local counter, hex-encoded.
type ObjectID string

var objectIDCounter atomic.Uint64

// NewObjectID mints an ObjectID stamped with ts.
func NewObjectID(ts time.Time) ObjectID {
	var raw [12]byte
	binary.BigEndian.PutUint32(raw[0:], uint32(ts.Unix()))
	binary.BigEndian.PutUint64(raw[4:], objectIDCounter.Add(1))
	return ObjectID(hex.EncodeToString(raw[:]))
}

// Time extracts the timestamp an ObjectID was minted with.
func (id ObjectID) Time() time.Time {
	var raw [12]byte
	if len(id) != 2*len(raw) {
		return time.Time{}
	}
	if _, err := hex.Decode(raw[:], []byte(id)); err != nil {
		return time.Time{}
	}
	return time.Unix(int64(binary.BigEndian.Uint32(raw[0:4])), 0).UTC()
}

// Collection is a typed in-memory document store keyed by ObjectID.
type Collection[T any] struct {
	mu   sync.RWMutex
	docs map[ObjectID]slot[T]
	// order preserves insertion sequence for deterministic scans. It can
	// name an id that is no longer in docs: Restore keeps a duplicated id
	// twice, and a sweep that expires the first copy skips the second.
	order []entry
	// minStamp is a lower bound on the stamps of the live documents:
	// Insert and Restore lower it and a sweep makes it exact. noStamp for
	// a new collection.
	minStamp int64
	// hooks observe mutations (see AddHook in state.go).
	hooks []func(Mutation)
	// version is the last write version handed out (see slot).
	version uint64
}

// slot is one live document with its write version: the collection's
// version counter as of the Insert, Update or Restore that last wrote
// it. The counter only grows, so a document whose version has not moved
// since an earlier export is unchanged since that export.
type slot[T any] struct {
	doc     T
	version uint64
}

// write stores doc under id with the next write version. Caller holds
// c.mu.
func (c *Collection[T]) write(id ObjectID, doc T) {
	c.version++
	c.docs[id] = slot[T]{doc: doc, version: c.version}
}

// notify fires every installed mutation hook. Caller holds c.mu.
func (c *Collection[T]) notify(m Mutation) {
	for _, fn := range c.hooks {
		fn(m)
	}
}

// entry is one slot of a collection's insertion order: the id with the
// unix second it decodes to (the zero time's for a malformed id), kept
// so that retention never decodes an id.
type entry struct {
	id    ObjectID
	stamp int64
}

func newEntry(id ObjectID) entry { return entry{id: id, stamp: id.Time().Unix()} }

// noStamp is minStamp's value when there is nothing to bound.
const noStamp = math.MaxInt64

// NewCollection creates an empty collection.
func NewCollection[T any]() *Collection[T] {
	return &Collection[T]{docs: make(map[ObjectID]slot[T]), minStamp: noStamp}
}

// Insert stores doc under a fresh ObjectID stamped with ts.
func (c *Collection[T]) Insert(ts time.Time, doc T) ObjectID {
	id := NewObjectID(ts)
	e := newEntry(id)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.write(id, doc)
	c.order = append(c.order, e)
	c.minStamp = min(c.minStamp, e.stamp)
	opInsert.Inc()
	c.notify(Mutation{Op: "insert", ID: id})
	return id
}

// Get fetches a document by id.
func (c *Collection[T]) Get(id ObjectID) (T, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.docs[id]
	return s.doc, ok
}

// Update applies fn to the document under id; it reports whether the
// document existed. Searching by ObjectID is O(1), which is exactly why
// the pipeline indexes live records' ObjectIDs instead of scanning for
// the latest record of an IP.
func (c *Collection[T]) Update(id ObjectID, fn func(*T)) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.docs[id]
	if !ok {
		return false
	}
	fn(&s.doc)
	c.write(id, s.doc)
	opUpdate.Inc()
	c.notify(Mutation{Op: "update", ID: id})
	return true
}

// Len returns the document count.
func (c *Collection[T]) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.docs)
}

// Find returns every document matching the filter, in insertion order.
// A nil filter returns everything.
func (c *Collection[T]) Find(filter func(T) bool) []T {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []T
	for _, e := range c.order {
		s, ok := c.docs[e.id]
		if !ok {
			continue
		}
		if filter == nil || filter(s.doc) {
			out = append(out, s.doc)
		}
	}
	return out
}

// Expire deletes documents whose ObjectID timestamp is older than cutoff
// and returns how many were removed — the historical database's lapsing
// two-week retention. It costs O(1) unless minStamp says something may be
// due: stamps arrive an hour at a time and non-decreasing, so in steady
// state one call per hour walks the collection and the rest return here.
func (c *Collection[T]) Expire(cutoff time.Time) int {
	// A stamp is whole seconds, so "before cutoff" is "below limit".
	limit := cutoff.Unix()
	if cutoff.Nanosecond() > 0 {
		limit++
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.minStamp >= limit {
		return 0
	}
	removed := c.sweep(limit)
	opExpire.Add(int64(removed))
	return removed
}

// sweep walks order once: it drops entries no longer in docs, removes
// every live document stamped below limit (firing its "expire" mutation,
// in insertion order), and makes minStamp exact. Caller holds c.mu.
func (c *Collection[T]) sweep(limit int64) int {
	removed := 0
	keep := c.order[:0]
	c.minStamp = noStamp
	for _, e := range c.order {
		if _, live := c.docs[e.id]; !live {
			continue
		}
		if e.stamp < limit {
			delete(c.docs, e.id)
			removed++
			c.notify(Mutation{Op: "expire", ID: e.id})
			continue
		}
		c.minStamp = min(c.minStamp, e.stamp)
		keep = append(keep, e)
	}
	clear(c.order[len(keep):]) // let go of the dropped ids
	c.order = keep
	return removed
}
