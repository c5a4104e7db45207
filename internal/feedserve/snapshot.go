package feedserve

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"hash/crc32"
	"io"
	"slices"
	"sort"
	"sync"
	"time"

	"exiot/internal/campaign"
	"exiot/internal/feed"
	"exiot/internal/packet"
	"exiot/internal/store"
)

// Item is one feed record inside a snapshot: its stable change-sequence
// number, its pre-marshaled NDJSON line (terminated by '\n') — the exact
// bytes the store-walked export path would produce, so snapshot-served
// responses are byte-identical to walking the document store — and the
// few fields that filters and campaign inference read. An item keeps no
// copy of the record.
type Item struct {
	// ID is the record's historical-database ObjectID.
	ID store.ObjectID
	// Seq is the record's change sequence: assigned when the record
	// first appears in a snapshot and re-assigned whenever its marshaled
	// bytes change (a flow end, say). Sequences only grow, so "every
	// record with Seq > N" is exactly "everything that changed since a
	// consumer's cursor N".
	Seq uint64
	// version is the record's store write version when Line was made:
	// while it stays the same, the next rebuild reuses the item. It sits
	// beside ID and Seq, which a rebuild reads with it.
	version uint64
	// Line is the record's NDJSON line, a subslice of its block's bytes
	// (JSON + trailing '\n').
	Line []byte
	// Key is what a query filter reads of the record.
	Key Key
	// sig is the record's campaign signature key, "" when it joins no
	// campaign, and ip its source address: with the key's country, what
	// campaign pass 1 reads, so a rebuilt block summarizes the items it
	// reuses without their records.
	sig, ip string
}

// Key is what a query filter reads of a record, taken once when the
// record is encoded. Each field answers its filter exactly as the
// record's own field does.
type Key struct {
	// Country is the record's country code, whatever its length.
	Country string
	ASN     int
	// DetectedAt is the record's detection time (TimeOf).
	DetectedAt Time
	// IP is the record's address, or 0 when BadIP says it does not parse.
	IP     packet.IP
	BadIP  bool
	Label  Label
	Active bool
}

// Label is a record's label as a key holds it.
type Label uint8

// The labels a key tells apart.
const (
	LabelOther  Label = iota // any label but the two below
	LabelIoT                 // feed.LabelIoT
	LabelNonIoT              // feed.LabelNonIoT
)

// LabelOf returns the key label of the record label s.
func LabelOf(s string) Label {
	switch s {
	case feed.LabelIoT:
		return LabelIoT
	case feed.LabelNonIoT:
		return LabelNonIoT
	}
	return LabelOther
}

// Time is an instant as a key holds it: Unix seconds, and nanoseconds
// within the second.
type Time struct {
	Sec  int64
	Nsec int32
}

// TimeOf returns t as a key holds it. Key times order as their
// time.Times do: TimeOf(a).Before(TimeOf(b)) exactly when a.Before(b),
// for every time whose Unix seconds fit an int64.
func TimeOf(t time.Time) Time {
	return Time{Sec: t.Unix(), Nsec: int32(t.Nanosecond())}
}

// Before reports whether a is earlier than b.
func (a Time) Before(b Time) bool {
	return a.Sec < b.Sec || a.Sec == b.Sec && a.Nsec < b.Nsec
}

// keyOf takes rec's key.
func keyOf(rec *feed.Record) Key {
	ip, err := packet.ParseIP(rec.IP)
	return Key{
		Country:    rec.CountryCode,
		ASN:        rec.ASN,
		DetectedAt: TimeOf(rec.DetectedAt),
		IP:         ip,
		BadIP:      err != nil,
		Label:      LabelOf(rec.Label),
		Active:     rec.Active,
	}
}

// Snapshot is an immutable point-in-time view of the feed. It is built
// once and never mutated, apart from its gzip export, which the first
// ExportGzip call builds; readers obtain it through an atomic pointer
// load (Cache.Current) and use it lock-free for as long as they like —
// the RCU discipline that keeps the read path zero-lock.
type Snapshot struct {
	// parts holds the items in document-store insertion order (the
	// bulk-export order), a block at a time.
	parts []*block
	// bySeq places every item, ordered by ascending Seq (cursor
	// pagination and delta queries).
	bySeq []place
	// n counts the items and size the export's bytes.
	n, size int
	// lastSeq is the highest sequence ever assigned up to this snapshot.
	lastSeq uint64
	// fp fingerprints the export (FNV-1a 64 over the blocks' hashes); it
	// changes whenever any record is added, updated, or removed, and
	// backs strong ETags.
	fp      uint64
	builtAt time.Time
	// gz is the export gzip-compressed, built by the first ExportGzip.
	gzOnce sync.Once
	gz     []byte
	// camps holds the campaigns, merged by the first Campaigns call.
	// Snapshots with the same blocks share it.
	camps *campaigns
	// marshaled counts the records this build encoded; the rest reused
	// the previous snapshot's lines. compressed counts the blocks this
	// snapshot's gzip export deflated; the rest an earlier snapshot had.
	marshaled  int
	compressed int
}

// blockCut sets the block size: a block ends after each record whose
// ObjectID hashes to 0 mod blockCut, so a block holds blockCut records
// on average, and where it ends depends on IDs alone.
const blockCut = 64

// block is one run of a snapshot's items with their export bytes.
// Snapshots that hold the same run of items (IDs and versions alike)
// share the block: its items, its bytes and its deflate stream.
type block struct {
	items []Item
	// data is the items' lines concatenated: the block's export bytes.
	data []byte
	// sum is data's FNV-1a 64 hash.
	sum uint64
	// cut reports whether the last item's ID ends a block, rather than
	// the block ending at its snapshot's end.
	cut bool
	// camps is campaign pass 1 over the items.
	camps campaign.Summary
	// z is data at BestSpeed, ending in a sync flush: a raw deflate
	// stream that any other such stream may follow. The first snapshot
	// whose gzip export needs it fills it.
	once sync.Once
	z    []byte
}

// place locates an item: blocks[k].items[i] of one snapshot's blocks.
type place struct{ k, i int32 }

// item returns the item at p.
func (s *Snapshot) item(p place) *Item { return &s.parts[p.k].items[p.i] }

// Len returns the number of records in the snapshot.
func (s *Snapshot) Len() int { return s.n }

// Size returns the length of the bulk export in bytes.
func (s *Snapshot) Size() int { return s.size }

// campaigns is a snapshot's campaigns, merged once.
type campaigns struct {
	once sync.Once
	list []campaign.Campaign
}

// Campaigns returns the campaigns inferred over the snapshot's records,
// exactly what campaign.Infer returns over them. The first call merges
// the blocks' summaries, and a snapshot holding the same blocks as the
// one before it shares that one's result, so a rebuild with no writes
// infers nothing. Shared; read-only.
func (s *Snapshot) Campaigns() []campaign.Campaign {
	s.camps.once.Do(func() {
		sums := make([]*campaign.Summary, len(s.parts))
		for k, b := range s.parts {
			sums[k] = &b.camps
		}
		s.camps.list = campaign.Merge(sums)
	})
	return s.camps.list
}

// LastSeq returns the highest change-sequence number assigned so far;
// a consumer holding cursor LastSeq has seen every change in this
// snapshot.
func (s *Snapshot) LastSeq() uint64 { return s.lastSeq }

// Fingerprint identifies the snapshot's content (strong-ETag base).
func (s *Snapshot) Fingerprint() uint64 { return s.fp }

// BuiltAt reports when the snapshot was assembled.
func (s *Snapshot) BuiltAt() time.Time { return s.builtAt }

// WriteTo writes the bulk export to w a block at a time.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, b := range s.parts {
		m, err := w.Write(b.data)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// ExportNDJSON returns a copy of the bulk export in one slice. Each call
// assembles it again; serving paths write the blocks with WriteTo.
func (s *Snapshot) ExportNDJSON() []byte {
	out := make([]byte, 0, s.size)
	for _, b := range s.parts {
		out = append(out, b.data...)
	}
	return out
}

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
	crc := uint32(0)
	for _, b := range s.parts {
		b.once.Do(func() {
			b.z = deflateBlock(b.data)
			s.compressed++
		})
		size += len(b.z)
		crc = crc32.Update(crc, crc32.IEEETable, b.data)
	}
	out := make([]byte, 0, size)
	out = append(out, gzipHeader...)
	for _, b := range s.parts {
		out = append(out, b.z...)
	}
	out = append(out, finalBlock...)
	out = binary.LittleEndian.AppendUint32(out, crc)
	return binary.LittleEndian.AppendUint32(out, uint32(s.size))
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

// ItemsSince returns pointers to every item with Seq > since, in
// ascending Seq order — the delta a consumer at cursor `since` has not
// seen yet.
func (s *Snapshot) ItemsSince(since uint64) []*Item {
	return s.ItemsAfter(since, 0, nil)
}

// ItemsAfter returns pointers to the first n items with Seq > after
// whose key satisfies match, in ascending Seq order. A nil match takes
// every item, and n <= 0 takes every match. The walk starts at the
// cursor and stops at the n-th match, so a page costs its length over
// the share of records that match, not the size of the snapshot.
func (s *Snapshot) ItemsAfter(after uint64, n int, match func(*Key) bool) []*Item {
	start := sort.Search(len(s.bySeq), func(i int) bool {
		return s.item(s.bySeq[i]).Seq > after
	})
	rest := s.bySeq[start:]
	if n <= 0 || n > len(rest) {
		n = len(rest)
	}
	out := make([]*Item, 0, n)
	for _, p := range rest {
		if len(out) == n {
			break
		}
		if it := s.item(p); match == nil || match(&it.Key) {
			out = append(out, it)
		}
	}
	return out
}

// Latest returns pointers to the last n items in insertion order whose
// key satisfies match, oldest first. A nil match takes every item,
// and n <= 0 takes every match. The walk starts at the newest item and
// stops at the n-th match, so only n <= 0 walks the whole snapshot.
func (s *Snapshot) Latest(n int, match func(*Key) bool) []*Item {
	if n <= 0 || n > s.n {
		n = s.n
	}
	out := make([]*Item, 0, n)
	for k := len(s.parts) - 1; k >= 0 && len(out) < n; k-- {
		items := s.parts[k].items
		for i := len(items) - 1; i >= 0 && len(out) < n; i-- {
			if match == nil || match(&items[i].Key) {
				out = append(out, &items[i])
			}
		}
	}
	slices.Reverse(out)
	return out
}
