package feedserve

import (
	"bytes"
	"cmp"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"hash/fnv"
	"slices"
	"sort"
	"sync"
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
// once and never mutated, apart from its gzip export, which the first
// ExportGzip call builds; readers obtain it through an atomic pointer
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
	// export is the full NDJSON bulk export (items' lines concatenated).
	export []byte
	// parts cuts the export into deflate blocks, in export order.
	parts []part
	// gz is the export gzip-compressed, built by the first ExportGzip.
	gzOnce sync.Once
	gz     []byte
	// marshaled counts the records this build encoded; the rest reused
	// the previous snapshot's lines. compressed counts the blocks this
	// snapshot's gzip export deflated; the rest an earlier snapshot had.
	marshaled  int
	compressed int
}

// blockCut sets the gzip block size: a block ends after each record
// whose ObjectID hashes to 0 mod blockCut, so a block holds blockCut
// records on average, and where it ends depends on IDs alone.
const blockCut = 64

// block is one run of export lines deflated on its own. Snapshots that
// hold the same run of lines share the block, and the first of them to
// build its gzip export fills z.
type block struct {
	once sync.Once
	// z is the block's lines at BestSpeed, ending in a sync flush: a
	// raw deflate stream that any other such stream may follow.
	z []byte
}

// part places a block in one snapshot.
type part struct {
	blk *block
	// first is the index of the block's first item, and off the export
	// offset of its first byte; the block runs to the next part's.
	first, off int
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

// ExportGzip returns the bulk export gzip-compressed. The first call
// builds it, deflating only the blocks no earlier snapshot deflated,
// and later calls return the same bytes. Shared; read-only.
func (s *Snapshot) ExportGzip() []byte {
	s.gzOnce.Do(func() {
		start := time.Now()
		s.gz = s.buildGzip()
		layerFeedserve.Done(start, 0)
		metExportBytes.With("gzip").Set(float64(len(s.gz)))
	})
	return s.gz
}

// gzipHeader opens a gzip member (RFC 1952): deflate, no flags, no
// modification time, fastest compression, unknown OS.
const gzipHeader = "\x1f\x8b\x08\x00\x00\x00\x00\x00\x04\xff"

// finalBlock is an empty stored deflate block with BFINAL set: it ends
// the deflate stream that the blocks' sync-flushed streams make up.
const finalBlock = "\x01\x00\x00\xff\xff"

// buildGzip assembles one gzip member from the snapshot's blocks, the
// way pigz does: the header, each block's deflate stream, the final
// block, then the CRC-32 and size of the whole export.
func (s *Snapshot) buildGzip() []byte {
	size := len(gzipHeader) + len(finalBlock) + 8
	for k := range s.parts {
		p := &s.parts[k]
		end := len(s.export)
		if k+1 < len(s.parts) {
			end = s.parts[k+1].off
		}
		p.blk.once.Do(func() {
			p.blk.z = deflateBlock(s.export[p.off:end])
			s.compressed++
		})
		size += len(p.blk.z)
	}
	out := make([]byte, 0, size)
	out = append(out, gzipHeader...)
	for _, p := range s.parts {
		out = append(out, p.blk.z...)
	}
	out = append(out, finalBlock...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(s.export))
	return binary.LittleEndian.AppendUint32(out, uint32(len(s.export)))
}

// deflater is a reusable BestSpeed compressor with its output buffer.
type deflater struct {
	zw  *flate.Writer
	out bytes.Buffer
}

var deflaters = sync.Pool{New: func() any {
	d := new(deflater)
	zw, err := flate.NewWriter(&d.out, flate.BestSpeed)
	if err != nil {
		panic(err) // BestSpeed is a valid level
	}
	d.zw = zw
	return d
}}

// deflateBlock compresses raw into a raw deflate stream at BestSpeed,
// ending in a sync flush, and returns a copy of exactly its size.
func deflateBlock(raw []byte) []byte {
	d := deflaters.Get().(*deflater)
	defer deflaters.Put(d)
	d.out.Reset()
	d.zw.Reset(&d.out)
	// Writes to a bytes.Buffer do not fail.
	_, _ = d.zw.Write(raw)
	_ = d.zw.Flush()
	return bytes.Clone(d.out.Bytes())
}

// cutAfter reports whether a block ends after the record id: whether
// id's FNV-1a hash is 0 mod blockCut.
func cutAfter(id store.ObjectID) bool {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return h%blockCut == 0
}

// sharedBlock returns s's block that holds exactly the lines at s's
// positions from — consecutive ones, starting where a block of s
// starts — or nil when from is anything else (a negative entry marks a
// line that is not s's).
func (s *Snapshot) sharedBlock(from []int) *block {
	if s == nil || from[0] < 0 {
		return nil
	}
	for j, pos := range from {
		if pos != from[0]+j {
			return nil
		}
	}
	k, ok := slices.BinarySearchFunc(s.parts, from[0], func(p part, first int) int {
		return cmp.Compare(p.first, first)
	})
	if !ok {
		return nil
	}
	end := len(s.items)
	if k+1 < len(s.parts) {
		end = s.parts[k+1].first
	}
	if end-from[0] != len(from) {
		return nil
	}
	return s.parts[k].blk
}

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
	// other line is prev's. from[i] is the position in prev of the item
	// whose line docs[i] reuses (-1 when encoded), and docs[i]'s line
	// ends at ends[i] in the export.
	var fresh bytes.Buffer
	enc := json.NewEncoder(&fresh)
	enc.SetEscapeHTML(false)
	from := make([]int, len(docs))
	ends := make([]int, len(docs))
	seqs := make([]uint64, len(docs))
	next := *lastSeq
	size := 0
	for i := range docs {
		from[i] = -1
		var old *Item
		if prev != nil {
			if pi, ok := prev.index[docs[i].ID]; ok {
				old = &prev.items[pi]
				if old.version == versions[i] {
					from[i] = pi
				}
			}
		}
		if from[i] >= 0 {
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
		at := 0 // where the next encoded line starts in fresh
		for i := range docs {
			if from[i] >= 0 {
				snap.export = append(snap.export, prev.items[from[i]].Line...)
				continue
			}
			n := ends[i] - len(snap.export)
			snap.export = append(snap.export, fresh.Bytes()[at:at+n]...)
			at += n
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

	// Cut the export into blocks. A block whose lines are all prev's, in
	// the order of one of prev's blocks, is that block, deflated at most
	// once for both snapshots.
	first := 0
	for i := range docs {
		if i < len(docs)-1 && !cutAfter(docs[i].ID) {
			continue
		}
		p := part{blk: prev.sharedBlock(from[first : i+1]), first: first}
		if p.blk == nil {
			p.blk = new(block)
		}
		if first > 0 {
			p.off = ends[first-1]
		}
		snap.parts = append(snap.parts, p)
		first = i + 1
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
	return snap, nil
}
