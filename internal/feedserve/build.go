package feedserve

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"hash"
	"hash/fnv"
	"slices"
	"sort"
	"time"

	"exiot/internal/campaign"
	"exiot/internal/feed"
	"exiot/internal/store"
)

// This file is the rebuild: it turns the store walk into the next
// snapshot, rebuilding only the blocks that hold a written, inserted or
// expired record and sharing every other block with the previous
// snapshot by pointer.

// seen is one live document as the store walk found it: the current
// snapshot's item under its ID (nil when it holds none), and its write
// version, or 0 when that item carries it. Store versions start at 1.
type seen struct {
	prev    *Item
	version uint64
}

// known reports whether the current snapshot holds the document at its
// version: whether its item can be reused.
func (w seen) known() bool { return w.version == 0 }

// builder is the rebuilder's state across rebuilds. Cache.rebuild uses
// it under Cache.mu; readers never touch it.
type builder struct {
	// index finds each record of the current snapshot by ID. When a
	// restore listed an ID twice, it holds one of the copies, which all
	// have the same version.
	index map[store.ObjectID]*Item
	// walk is the store walk of the build under way, in insertion
	// order. Its buffer is reused from one rebuild to the next.
	walk []seen
	// heads maps the first item of each block of the current snapshot
	// to the block's index there, for the build under way. It is empty
	// between builds.
	heads map[*Item]int
}

func newBuilder() *builder {
	return &builder{heads: make(map[*Item]int)}
}

// see records one live document of the store walk and reports whether
// its version moved since the current snapshot: whether the walk must
// copy it out.
func (b *builder) see(id store.ObjectID, version uint64) bool {
	prev := b.index[id]
	if prev != nil && prev.version == version {
		b.walk = append(b.walk, seen{prev: prev})
		return false
	}
	b.walk = append(b.walk, seen{prev: prev, version: version})
	return true
}

// build assembles the next snapshot from the walk that just ran. docs
// are the documents the walk copied out, the ones whose version prev
// does not hold, in walk order. prev is the current snapshot (nil on
// the first build), and lastSeq the highest sequence handed out so
// far. A record whose version prev holds keeps prev's item; any other
// is encoded, and keeps its sequence number only if its bytes are
// unchanged, drawing the next one from lastSeq otherwise. On success
// the index describes the new snapshot; on error nothing moved.
func (b *builder) build(prev *Snapshot, docs []store.Doc[feed.Record], lastSeq *uint64, now time.Time) (*Snapshot, error) {
	// Between builds the walk and heads hold nothing, so that neither
	// keeps a block of an old snapshot alive.
	defer func() {
		clear(b.walk)
		b.walk = b.walk[:0]
		clear(b.heads)
	}()
	snap := &Snapshot{n: len(b.walk), builtAt: now}
	// A block holds blockCut records on average: room for that many
	// blocks and an eighth more saves growing parts at every rebuild.
	snap.parts = make([]*block, 0, len(b.walk)/blockCut*9/8+8)
	enc := &encoder{next: *lastSeq, hash: fnv.New64a()}
	enc.json = json.NewEncoder(&enc.scratch)
	enc.json.SetEscapeHTML(false)
	// remap[k] is the new index of prev's block k, or -1 while the build
	// has not placed it.
	var remap []int32
	if prev != nil {
		remap = make([]int32, len(prev.parts))
		for k, blk := range prev.parts {
			remap[k] = -1
			b.heads[&blk.items[0]] = k
		}
	}

	// Cut the walk into runs, ending one after each record whose ID
	// says so. A run that is exactly one of prev's blocks is that block;
	// any other is built afresh.
	var rebuilt []int // snap.parts indexes of the blocks built afresh
	next := 0         // docs[next] is the first document no block took
	for first := 0; first < len(b.walk); {
		var blk *block
		if k := b.shared(b.walk[first:], prev, remap); k >= 0 {
			blk = prev.parts[k]
			remap[k] = int32(len(snap.parts))
			first += len(blk.items)
		} else {
			end, d := first, next
			for {
				w := b.walk[end]
				var id store.ObjectID
				if w.known() {
					id = w.prev.ID
				} else {
					id = docs[next].ID
					next++
				}
				end++
				if end == len(b.walk) || cutAfter(id) {
					break
				}
			}
			var err error
			if blk, err = enc.block(b.walk[first:end], docs[d:next]); err != nil {
				return nil, err
			}
			rebuilt = append(rebuilt, len(snap.parts))
			first = end
		}
		snap.parts = append(snap.parts, blk)
		snap.size += len(blk.data)
	}
	snap.marshaled = enc.marshaled
	*lastSeq = enc.next
	snap.lastSeq = enc.next

	var sum [8]byte
	enc.hash.Reset()
	for _, blk := range snap.parts {
		binary.LittleEndian.PutUint64(sum[:], blk.sum)
		enc.hash.Write(sum[:])
	}
	snap.fp = enc.hash.Sum64()
	if prev != nil && samePlaces(remap, len(snap.parts), rebuilt) {
		snap.bySeq, snap.camps = prev.bySeq, prev.camps
	} else {
		snap.bySeq, snap.camps = mergeSeq(prev, remap, snap, rebuilt), new(campaigns)
	}

	// The new blocks' records now live there, and records only the
	// dropped blocks held are gone. An empty index is sized for the
	// whole snapshot at once rather than grown a step at a time.
	if len(b.index) == 0 {
		b.index = make(map[store.ObjectID]*Item, snap.n)
	}
	for _, k := range rebuilt {
		blk := snap.parts[k]
		for i := range blk.items {
			b.index[blk.items[i].ID] = &blk.items[i]
		}
	}
	for k, at := range remap {
		if at >= 0 {
			continue
		}
		blk := prev.parts[k]
		for i := range blk.items {
			if id := blk.items[i].ID; b.index[id] == &blk.items[i] {
				delete(b.index, id)
			}
		}
	}
	return snap, nil
}

// shared returns the index of prev's block that rest, the walk from a
// run's start on, starts with: the block whose items are exactly rest's
// first records at their versions, each the item the index holds for
// its ID, and which ends where the cut rule ends the run, after an ID
// that says so or at the end of the walk. It returns -1 when no block
// does, or when the build has placed that block already.
func (b *builder) shared(rest []seen, prev *Snapshot, remap []int32) int {
	if !rest[0].known() {
		return -1
	}
	k, ok := b.heads[rest[0].prev]
	if !ok || remap[k] >= 0 {
		return -1
	}
	blk := prev.parts[k]
	if n := len(blk.items); n > len(rest) || (!blk.cut && n < len(rest)) {
		return -1
	}
	for j := range blk.items {
		if w := rest[j]; !w.known() || w.prev != &blk.items[j] {
			return -1
		}
	}
	return k
}

// samePlaces reports whether a build of n blocks rebuilt none and put
// each of the previous snapshot's blocks, as remap places them, where it
// was: whether the new snapshot holds the previous one's blocks in its
// order, so that it has its sequence order and campaigns.
func samePlaces(remap []int32, n int, rebuilt []int) bool {
	if len(rebuilt) > 0 || len(remap) != n {
		return false
	}
	for k, at := range remap {
		if at != int32(k) {
			return false
		}
	}
	return true
}

// mergeSeq orders snap's items by sequence: prev's order, less the
// dropped blocks' items (remap -1) and with the kept ones renumbered,
// merged with the rebuilt blocks' items, which are the only ones sorted.
// Each rebuilt item finds its place in prev's order by binary search, so
// the kept items are copied, not compared.
func mergeSeq(prev *Snapshot, remap []int32, snap *Snapshot, rebuilt []int) []place {
	n := 0
	for _, k := range rebuilt {
		n += len(snap.parts[k].items)
	}
	fresh := make([]place, 0, n)
	for _, k := range rebuilt {
		for i := range snap.parts[k].items {
			fresh = append(fresh, place{int32(k), int32(i)})
		}
	}
	// Items sharing a sequence number are copies of one restored
	// document, with the same bytes, so their order cannot show.
	slices.SortFunc(fresh, func(a, b place) int { return cmp.Compare(snap.item(a).Seq, snap.item(b).Seq) })
	if prev == nil {
		return fresh
	}
	out := make([]place, 0, snap.n)
	keep := func(old []place) {
		for _, p := range old {
			if at := remap[p.k]; at >= 0 {
				out = append(out, place{at, p.i})
			}
		}
	}
	from := 0
	for _, f := range fresh {
		seq, rest := snap.item(f).Seq, prev.bySeq[from:]
		to := from + sort.Search(len(rest), func(i int) bool { return prev.item(rest[i]).Seq >= seq })
		keep(prev.bySeq[from:to])
		out = append(out, f)
		from = to
	}
	keep(prev.bySeq[from:])
	return out
}

// encoder builds the blocks a rebuild cannot share. It encodes with the
// exact settings of the store-walked export path (json.Encoder, HTML
// escaping off).
type encoder struct {
	// next is the highest sequence number handed out.
	next    uint64
	scratch bytes.Buffer
	json    *json.Encoder
	// hash is FNV-1a 64, for the block sums and the fingerprint.
	hash hash.Hash64
	// ends[j] is where the j-th line encoded into scratch for the block
	// under way ends.
	ends      []int
	marshaled int
	// camp summarizes each block for campaign inference.
	camp campaign.Summarizer
}

// block builds the block over run, which ends after an ID that says so
// or at the end of the walk. A record the current snapshot holds at its
// version reuses that item: its sequence number, line, key and campaign
// fields. Any other is the next of docs: encoded, keyed and signed.
func (e *encoder) block(run []seen, docs []store.Doc[feed.Record]) (*block, error) {
	blk := &block{items: make([]Item, len(run))}
	e.scratch.Reset()
	e.ends = e.ends[:0]
	size := 0
	for j, w := range run {
		it := &blk.items[j]
		old := w.prev
		if w.known() {
			*it = *old
			size += len(old.Line)
			continue
		}
		rec := &docs[0].Value
		at := e.scratch.Len()
		if err := e.json.Encode(rec); err != nil {
			return nil, err
		}
		it.ID, it.version = docs[0].ID, w.version
		it.Key, it.sig, it.ip = keyOf(rec), e.camp.Key(rec), rec.IP
		docs = docs[1:]
		e.marshaled++
		line := e.scratch.Bytes()[at:]
		size += len(line)
		e.ends = append(e.ends, e.scratch.Len())
		if old != nil && bytes.Equal(old.Line, line) {
			it.Seq = old.Seq
		} else {
			e.next++
			it.Seq = e.next
		}
	}
	blk.cut = cutAfter(blk.items[len(run)-1].ID)

	// Lay the lines out in one buffer of exactly their size: a reused
	// line is copied from its old block, an encoded one (Line still nil)
	// from scratch. Each line is then a subslice of the block's bytes.
	blk.data = make([]byte, 0, size)
	from, n := 0, 0
	for j := range blk.items {
		it := &blk.items[j]
		start := len(blk.data)
		if it.Line != nil {
			blk.data = append(blk.data, it.Line...)
		} else {
			blk.data = append(blk.data, e.scratch.Bytes()[from:e.ends[n]]...)
			from = e.ends[n]
			n++
		}
		it.Line = blk.data[start:]
	}
	e.hash.Reset()
	e.hash.Write(blk.data)
	blk.sum = e.hash.Sum64()

	for j := range blk.items {
		if it := &blk.items[j]; it.sig != "" {
			e.camp.Add(it.sig, it.ip, it.Key.Country)
		}
	}
	blk.camps = e.camp.Summary()
	return blk, nil
}
