package store

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
	docs, _ := c.ExportVersions()
	return docs
}

// ExportVersions is Export plus each document's write version, read
// under the same lock: versions[i] belongs to docs[i]. Versions are
// never reused within a collection, so a document whose version equals
// the one an earlier export gave it has not been written since.
func (c *Collection[T]) ExportVersions() (docs []Doc[T], versions []uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	docs = make([]Doc[T], 0, len(c.docs))
	versions = make([]uint64, 0, len(c.docs))
	for _, e := range c.order {
		s, ok := c.docs[e.id]
		if !ok {
			continue
		}
		docs = append(docs, Doc[T]{ID: e.id, Value: s.doc})
		versions = append(versions, s.version)
	}
	return docs, versions
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
