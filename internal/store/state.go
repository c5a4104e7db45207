package store

import (
	"sort"
	"time"
)

// This file is the durability surface of the store package: full-state
// export/restore used by snapshots, plus the mutation hooks that let the
// feed-serving cache observe a collection's write traffic.

// Doc pairs a document with its ObjectID for export.
type Doc[T any] struct {
	ID    ObjectID `json:"id"`
	Value T        `json:"value"`
}

// Export returns every live document with its ID, in insertion order —
// the exact shape Restore accepts.
func (c *Collection[T]) Export() []Doc[T] {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Doc[T], 0, len(c.docs))
	for _, e := range c.order {
		doc, ok := c.docs[e.id]
		if !ok {
			continue
		}
		out = append(out, Doc[T]{ID: e.id, Value: doc})
	}
	return out
}

// Restore replaces the collection's contents with an exported state.
// Insertion order follows the slice order. Neither telemetry counters
// nor the mutation hook fire: a restore reconstructs state, it does not
// re-perform operations.
func (c *Collection[T]) Restore(docs []Doc[T]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.docs = make(map[ObjectID]T, len(docs))
	c.order = make([]entry, 0, len(docs))
	c.minStamp = noStamp
	for _, d := range docs {
		e := newEntry(d.ID)
		c.docs[d.ID] = d.Value
		c.order = append(c.order, e)
		c.minStamp = min(c.minStamp, e.stamp)
	}
}

// KVItem is one exported key-value entry.
type KVItem struct {
	Key   string `json:"key"`
	Value string `json:"value"`
	// ExpiresAt is the absolute expiry instant (zero = no expiry);
	// exporting the absolute time keeps TTLs exact across a restart.
	ExpiresAt time.Time `json:"expires_at,omitempty"`
}

// Export returns the live (unexpired) entries sorted by key.
func (kv *KV) Export() []KVItem {
	now := kv.clock()
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	out := make([]KVItem, 0, len(kv.data))
	for k, e := range kv.data {
		if !e.expiresAt.IsZero() && now.After(e.expiresAt) {
			continue
		}
		out = append(out, KVItem{Key: k, Value: e.value, ExpiresAt: e.expiresAt})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Restore replaces the store's contents with an exported state.
func (kv *KV) Restore(items []KVItem) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.data = make(map[string]kvEntry, len(items))
	kv.firstExpiry = time.Time{}
	for _, it := range items {
		kv.data[it.Key] = kvEntry{value: it.Value, expiresAt: it.ExpiresAt}
		kv.noteExpiry(it.ExpiresAt)
	}
}

// Mutation describes one collection write for observers.
type Mutation struct {
	// Op is the operation name: insert|update|expire.
	Op string
	// ID is the affected document.
	ID ObjectID
}

// AddHook appends fn to the observers of every mutation. A hook runs
// with the store's lock held, so it must be fast and must not call back
// into the store. Restore never fires it. Added hooks cannot be
// removed.
func (c *Collection[T]) AddHook(fn func(Mutation)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hooks = append(c.hooks, fn)
}

// ObjectIDCounterValue reports the process-global ObjectID counter, for
// inclusion in snapshots.
func ObjectIDCounterValue() uint64 {
	return objectIDCounter.Load()
}

// BumpObjectIDCounter raises the process-global ObjectID counter to at
// least v (never lowers it), so IDs minted after a restore cannot
// collide with IDs already present in the restored state.
func BumpObjectIDCounter(v uint64) {
	for {
		cur := objectIDCounter.Load()
		if cur >= v || objectIDCounter.CompareAndSwap(cur, v) {
			return
		}
	}
}
