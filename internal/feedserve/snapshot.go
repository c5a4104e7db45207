package feedserve

import (
	"bytes"
	"cmp"
	"compress/gzip"
	"encoding/json"
	"hash/fnv"
	"slices"
	"sort"
	"time"

	"exiot/internal/feed"
	"exiot/internal/store"
)

// Item is one feed record inside a snapshot: the record itself (for
// filtering), its stable change-sequence number, and its pre-marshaled
// NDJSON line (terminated by '\n') — the exact bytes the store-walked
// export path would produce, so snapshot-served responses are
// byte-identical to walking the document store.
type Item struct {
	// ID is the record's historical-database ObjectID.
	ID store.ObjectID
	// Seq is the record's change sequence: assigned when the record
	// first appears in a snapshot and re-assigned whenever its marshaled
	// bytes change (a flow end, say). Sequences only grow, so "every
	// record with Seq > N" is exactly "everything that changed since a
	// consumer's cursor N".
	Seq uint64
	// Line is the record's NDJSON line, a subslice of the snapshot's
	// export buffer (JSON + trailing '\n').
	Line []byte
	// Rec is the decoded record, for query filtering.
	Rec feed.Record
	// version is the record's store write version when Line was made:
	// while it stays the same, the next rebuild reuses Line.
	version uint64
}

// Snapshot is an immutable point-in-time view of the feed. It is built
// once and never mutated; readers obtain it through an atomic pointer
// load (Cache.Current) and use it lock-free for as long as they like —
// the RCU discipline that keeps the read path zero-lock.
type Snapshot struct {
	// items in document-store insertion order (the bulk-export order).
	items []Item
	// index maps ObjectID → items position (change detection on rebuild).
	index map[store.ObjectID]int
	// bySeq holds items positions ordered by ascending Seq (cursor
	// pagination and delta queries).
	bySeq []int
	// lastSeq is the highest sequence ever assigned up to this snapshot.
	lastSeq uint64
	// fp fingerprints the export bytes (FNV-1a 64); it changes whenever
	// any record is added, updated, or removed, and backs strong ETags.
	fp      uint64
	builtAt time.Time
	// export is the full NDJSON bulk export (items' lines concatenated);
	// exportGzip is the same bytes gzip-compressed, built once per
	// snapshot rather than per request.
	export     []byte
	exportGzip []byte
	// marshaled counts the records this build encoded; the rest reused
	// the previous snapshot's lines.
	marshaled int
}

// Len returns the number of records in the snapshot.
func (s *Snapshot) Len() int { return len(s.items) }

// Records copies the snapshot's decoded records, in export order — the
// input shape analysis passes (campaign tracking, say) want.
func (s *Snapshot) Records() []feed.Record {
	out := make([]feed.Record, len(s.items))
	for i := range s.items {
		out[i] = s.items[i].Rec
	}
	return out
}

// Items returns the records in insertion order. The slice is shared and
// must not be mutated.
func (s *Snapshot) Items() []Item { return s.items }

// LastSeq returns the highest change-sequence number assigned so far;
// a consumer holding cursor LastSeq has seen every change in this
// snapshot.
func (s *Snapshot) LastSeq() uint64 { return s.lastSeq }

// Fingerprint identifies the snapshot's content (strong-ETag base).
func (s *Snapshot) Fingerprint() uint64 { return s.fp }

// BuiltAt reports when the snapshot was assembled.
func (s *Snapshot) BuiltAt() time.Time { return s.builtAt }

// ExportNDJSON returns the precomputed bulk export. Shared; read-only.
func (s *Snapshot) ExportNDJSON() []byte { return s.export }

// ExportGzip returns the precomputed gzip'd bulk export. Shared;
// read-only.
func (s *Snapshot) ExportGzip() []byte { return s.exportGzip }

// ItemsSince returns pointers to every item with Seq > since, in
// ascending Seq order — the delta a consumer at cursor `since` has not
// seen yet.
func (s *Snapshot) ItemsSince(since uint64) []*Item {
	return s.ItemsAfter(since, 0, nil)
}

// ItemsAfter returns pointers to the first n items with Seq > after
// whose record satisfies match, in ascending Seq order. A nil match
// takes every item, and n <= 0 takes every match. The walk starts at the
// cursor and stops at the n-th match, so a page costs its length over
// the share of records that match, not the size of the snapshot.
func (s *Snapshot) ItemsAfter(after uint64, n int, match func(*feed.Record) bool) []*Item {
	start := sort.Search(len(s.bySeq), func(i int) bool {
		return s.items[s.bySeq[i]].Seq > after
	})
	rest := s.bySeq[start:]
	if n <= 0 || n > len(rest) {
		n = len(rest)
	}
	out := make([]*Item, 0, n)
	for _, idx := range rest {
		if len(out) == n {
			break
		}
		if it := &s.items[idx]; match == nil || match(&it.Rec) {
			out = append(out, it)
		}
	}
	return out
}

// buildSnapshot assembles a fresh snapshot from an exported collection
// state and its write versions. prev (nil on the first build) supplies
// change detection: a record whose version is the one prev marshaled
// keeps prev's line and sequence number without being encoded again;
// any other record is encoded, and keeps its sequence number only if
// its bytes are unchanged, drawing the next one from lastSeq otherwise.
func buildSnapshot(docs []store.Doc[feed.Record], versions []uint64, prev *Snapshot, lastSeq *uint64, now time.Time) (*Snapshot, error) {
	snap := &Snapshot{
		items:   make([]Item, 0, len(docs)),
		index:   make(map[store.ObjectID]int, len(docs)),
		builtAt: now,
	}

	// Encode what changed into fresh, with the exact settings of the
	// store-walked export path (json.Encoder, HTML escaping off); every
	// other line is prev's. kept[i] is the prev item whose line docs[i]
	// reuses (nil when encoded), and docs[i]'s line ends at ends[i] in
	// the export.
	var fresh bytes.Buffer
	enc := json.NewEncoder(&fresh)
	enc.SetEscapeHTML(false)
	kept := make([]*Item, len(docs))
	ends := make([]int, len(docs))
	seqs := make([]uint64, len(docs))
	next := *lastSeq
	size := 0
	for i := range docs {
		var old *Item
		if prev != nil {
			if pi, ok := prev.index[docs[i].ID]; ok {
				old = &prev.items[pi]
			}
		}
		if old != nil && old.version == versions[i] {
			kept[i] = old
			seqs[i] = old.Seq
			size += len(old.Line)
		} else {
			at := fresh.Len()
			if err := enc.Encode(&docs[i].Value); err != nil {
				return nil, err
			}
			snap.marshaled++
			line := fresh.Bytes()[at:]
			size += len(line)
			if old != nil && bytes.Equal(old.Line, line) {
				seqs[i] = old.Seq
			} else {
				next++
				seqs[i] = next
			}
		}
		ends[i] = size
	}

	// With nothing kept, fresh is the export. Otherwise lay the lines
	// out in one buffer of exactly their size, which the snapshot keeps
	// for its life. Either way each line is a subslice of the export.
	snap.export = fresh.Bytes()
	if len(snap.export) != size {
		snap.export = make([]byte, 0, size)
		from := 0 // where the next encoded line starts in fresh
		for i := range docs {
			if kept[i] != nil {
				snap.export = append(snap.export, kept[i].Line...)
				continue
			}
			n := ends[i] - len(snap.export)
			snap.export = append(snap.export, fresh.Bytes()[from:from+n]...)
			from += n
		}
	}
	start := 0
	for i := range docs {
		snap.index[docs[i].ID] = len(snap.items)
		snap.items = append(snap.items, Item{
			ID: docs[i].ID, Seq: seqs[i], Line: snap.export[start:ends[i]],
			Rec: docs[i].Value, version: versions[i],
		})
		start = ends[i]
	}
	*lastSeq = next
	snap.lastSeq = next

	snap.bySeq = make([]int, len(snap.items))
	for i := range snap.bySeq {
		snap.bySeq[i] = i
	}
	// Items sharing a sequence number are copies of one restored
	// document, with the same bytes, so their order cannot show.
	slices.SortFunc(snap.bySeq, func(a, b int) int { return cmp.Compare(seqs[a], seqs[b]) })

	h := fnv.New64a()
	_, _ = h.Write(snap.export)
	snap.fp = h.Sum64()

	var gz bytes.Buffer
	zw, err := gzip.NewWriterLevel(&gz, gzip.BestSpeed)
	if err != nil {
		return nil, err
	}
	if _, err := zw.Write(snap.export); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	snap.exportGzip = gz.Bytes()
	return snap, nil
}
