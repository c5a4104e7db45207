// Package store provides eX-IoT's three storage backends as in-memory,
// concurrency-safe substitutes: a document store with Mongo-style
// ObjectIDs (the "latest threat information" database), a historical
// variant with a lapsing retention window (the two-week database), and a
// Redis-like key-value store with optional TTL (the ObjectID cache used
// for fast END_FLOW status updates).
package store

import (
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
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
// the pipeline caches ObjectIDs in the KV store instead of scanning for
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

// FindIDs returns matching (id, document) pairs in insertion order.
func (c *Collection[T]) FindIDs(filter func(T) bool) ([]ObjectID, []T) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var ids []ObjectID
	var docs []T
	for _, e := range c.order {
		s, ok := c.docs[e.id]
		if !ok {
			continue
		}
		if filter == nil || filter(s.doc) {
			ids = append(ids, e.id)
			docs = append(docs, s.doc)
		}
	}
	return ids, docs
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

// KV is a Redis-like string store with optional per-key expiry.
type KV struct {
	mu    sync.RWMutex
	data  map[string]kvEntry
	clock func() time.Time
	// firstExpiry is a lower bound on the expiresAt of the TTL'd keys
	// held, zero when there are none: until the clock passes it no key
	// can have lapsed, and Len and Keys need not look.
	firstExpiry time.Time
}

type kvEntry struct {
	value     string
	expiresAt time.Time // zero = no expiry
}

// NewKV creates an empty KV store using the real clock.
func NewKV() *KV { return NewKVWithClock(time.Now) }

// NewKVWithClock creates a KV store with an injected clock (tests, and
// the pipeline's simulated time).
func NewKVWithClock(clock func() time.Time) *KV {
	return &KV{data: make(map[string]kvEntry), clock: clock}
}

// Set stores value under key with no expiry.
func (kv *KV) Set(key, value string) {
	kv.SetTTL(key, value, 0)
}

// SetTTL stores value under key, expiring after ttl (0 = never).
func (kv *KV) SetTTL(key, value string, ttl time.Duration) {
	e := kvEntry{value: value}
	if ttl > 0 {
		e.expiresAt = kv.clock().Add(ttl)
	}
	kv.mu.Lock()
	kv.data[key] = e
	kv.noteExpiry(e.expiresAt)
	kv.mu.Unlock()
}

// noteExpiry lowers firstExpiry to at (zero = no expiry). Caller holds
// kv.mu.
func (kv *KV) noteExpiry(at time.Time) {
	if !at.IsZero() && (kv.firstExpiry.IsZero() || at.Before(kv.firstExpiry)) {
		kv.firstExpiry = at
	}
}

// sweep deletes the keys that have lapsed by now, if firstExpiry says any
// can have, and makes firstExpiry exact. Caller holds kv.mu.
func (kv *KV) sweep(now time.Time) {
	if kv.firstExpiry.IsZero() || !now.After(kv.firstExpiry) {
		return
	}
	kv.firstExpiry = time.Time{}
	for k, e := range kv.data {
		if !e.expiresAt.IsZero() && now.After(e.expiresAt) {
			delete(kv.data, k)
			continue
		}
		kv.noteExpiry(e.expiresAt)
	}
}

// Get fetches key's value if present and unexpired.
func (kv *KV) Get(key string) (string, bool) {
	kv.mu.RLock()
	e, ok := kv.data[key]
	kv.mu.RUnlock()
	if !ok {
		return "", false
	}
	if !e.expiresAt.IsZero() && kv.clock().After(e.expiresAt) {
		kv.Del(key)
		return "", false
	}
	return e.value, true
}

// Del removes key; it reports whether the key existed.
func (kv *KV) Del(key string) bool {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if _, ok := kv.data[key]; !ok {
		return false
	}
	delete(kv.data, key)
	return true
}

// Len returns the number of live keys (expired keys are swept lazily).
func (kv *KV) Len() int {
	now := kv.clock()
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.sweep(now)
	return len(kv.data)
}

// Keys returns the live keys, sorted (deterministic iteration for tests
// and dashboards).
func (kv *KV) Keys() []string {
	now := kv.clock()
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.sweep(now)
	out := make([]string, 0, len(kv.data))
	for k := range kv.data {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
