package store

// This file is the durability surface of the store package: full-state
// export/restore used by snapshots, plus the mutation hooks that let the
// feed-serving cache observe a collection's write traffic.

import "math/bits"

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
	docs := make([]Doc[T], 0, len(c.docs))
	for _, e := range c.order {
		if s, ok := c.docs[e.id]; ok {
			docs = append(docs, Doc[T]{ID: e.id, Value: s.doc})
		}
	}
	return docs
}

// ExportChanged walks the live documents in insertion order under one
// read lock, calling seen with each one's ID and write version, and
// returns each document seen reports changed with its ID, in the same
// order. Versions are never reused within a collection, so a document
// whose version equals the one an earlier walk gave it has not been
// written since. seen runs under the lock: it must not call back into
// the collection.
func (c *Collection[T]) ExportChanged(seen func(id ObjectID, version uint64) (changed bool)) []Doc[T] {
	c.mu.RLock()
	defer c.mu.RUnlock()
	// Mark the changed documents' positions, then copy them into a slice
	// of exactly their number. The marking pass reads a slot's version
	// alone, not a copy of the document: versions start at 1, so 0 is an
	// entry of order that is no longer live.
	marked := make([]uint64, (len(c.order)+63)/64)
	n := 0
	for i, e := range c.order {
		if v := c.docs[e.id].version; v != 0 && seen(e.id, v) {
			marked[i/64] |= 1 << (i % 64)
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Doc[T], 0, n)
	for w, word := range marked {
		for ; word != 0; word &= word - 1 {
			e := c.order[w*64+bits.TrailingZeros64(word)]
			out = append(out, Doc[T]{ID: e.id, Value: c.docs[e.id].doc})
		}
	}
	return out
}

// Restore replaces the collection's contents with an exported state.
// Insertion order follows the slice order. Every restored document gets
// a fresh write version. Neither telemetry counters nor the mutation
// hook fire: a restore reconstructs state, it does not re-perform
// operations.
func (c *Collection[T]) Restore(docs []Doc[T]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.docs = make(map[ObjectID]slot[T], len(docs))
	c.order = make([]entry, 0, len(docs))
	c.minStamp = noStamp
	for _, d := range docs {
		e := newEntry(d.ID)
		c.write(d.ID, d.Value)
		c.order = append(c.order, e)
		c.minStamp = min(c.minStamp, e.stamp)
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
