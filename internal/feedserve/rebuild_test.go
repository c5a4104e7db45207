package feedserve

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"testing"
	"time"

	"exiot/internal/feed"
	"exiot/internal/store"
)

// refSnapshot is what the full rebuild produces: every record marshaled
// again, and a sequence number kept only where a record's bytes equal
// its line in the previous build.
type refSnapshot struct {
	export  []byte
	ids     []store.ObjectID
	seqs    []uint64
	lines   map[store.ObjectID][]byte
	seqByID map[store.ObjectID]uint64
	lastSeq uint64
}

// refBuild is the full rebuild over docs, after prev (nil first).
func refBuild(t *testing.T, docs []store.Doc[feed.Record], prev *refSnapshot) *refSnapshot {
	t.Helper()
	ref := &refSnapshot{lines: map[store.ObjectID][]byte{}, seqByID: map[store.ObjectID]uint64{}}
	if prev != nil {
		ref.lastSeq = prev.lastSeq
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	for _, d := range docs {
		start := buf.Len()
		if err := enc.Encode(&d.Value); err != nil {
			t.Fatal(err)
		}
		line := buf.Bytes()[start:]
		seq := uint64(0)
		if prev != nil && bytes.Equal(prev.lines[d.ID], line) {
			seq = prev.seqByID[d.ID]
		}
		if seq == 0 {
			ref.lastSeq++
			seq = ref.lastSeq
		}
		ref.ids = append(ref.ids, d.ID)
		ref.seqs = append(ref.seqs, seq)
		ref.lines[d.ID] = append([]byte(nil), line...)
		ref.seqByID[d.ID] = seq
	}
	ref.export = buf.Bytes()
	return ref
}

// checkAgainstRef fails t unless snap serves exactly what ref built.
func checkAgainstRef(t *testing.T, snap *Snapshot, ref *refSnapshot) {
	t.Helper()
	if !bytes.Equal(snap.ExportNDJSON(), ref.export) {
		t.Fatalf("export differs from the full rebuild:\n got %q\nwant %q", snap.ExportNDJSON(), ref.export)
	}
	zr, err := gzip.NewReader(bytes.NewReader(snap.ExportGzip()))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, ref.export) {
		t.Fatal("gzip export does not decompress to the full rebuild's export")
	}
	h := fnv.New64a()
	h.Write(ref.export)
	if snap.Fingerprint() != h.Sum64() {
		t.Fatalf("fingerprint %x, full rebuild %x", snap.Fingerprint(), h.Sum64())
	}
	if snap.LastSeq() != ref.lastSeq {
		t.Fatalf("LastSeq %d, full rebuild %d", snap.LastSeq(), ref.lastSeq)
	}
	items := snap.Items()
	if len(items) != len(ref.ids) {
		t.Fatalf("%d items, full rebuild %d", len(items), len(ref.ids))
	}
	for i := range items {
		if items[i].ID != ref.ids[i] || items[i].Seq != ref.seqs[i] {
			t.Fatalf("item %d is %s seq %d, full rebuild %s seq %d", i, items[i].ID, items[i].Seq, ref.ids[i], ref.seqs[i])
		}
	}
}

// FuzzSnapshotRebuild runs a collection through the mutations the feed
// sees — inserts, updates that change a record's bytes and updates that
// keep them, expiry sweeps, and restores, with a record changed or
// listed twice — rebuilding the cache after each batch. Every rebuild,
// which re-encodes only records whose store version moved, must serve
// what the full rebuild serves over the same history: the same export
// and gzip'd export, fingerprint, LastSeq and sequence number per
// record.
//
// Each input byte is one step: b%6 picks the operation and b/6 its
// argument.
func FuzzSnapshotRebuild(f *testing.F) {
	f.Add([]byte{0, 6, 12, 5, 1, 7, 2, 5})
	f.Add([]byte{0, 0, 0, 0, 5, 1, 13, 5, 2, 8, 5, 3, 5, 4, 5, 1, 5})
	f.Add([]byte{0, 6, 12, 18, 5, 10, 5, 9, 15, 5, 0, 3, 5})
	f.Add([]byte{0, 6, 5, 2, 2, 5, 1, 1, 5, 4, 1, 5})
	f.Add([]byte{0, 6, 12, 5, 16, 5, 1, 5, 34, 5, 3, 5})

	f.Fuzz(func(t *testing.T, steps []byte) {
		if len(steps) > 512 {
			steps = steps[:512]
		}
		coll := store.NewCollection[feed.Record]()
		var ids []store.ObjectID
		record := func(n int) feed.Record {
			return feed.Record{
				IP:          fmt.Sprintf("10.1.%d.%d", n/256%256, n%256),
				Label:       feed.LabelIoT,
				Active:      n%2 == 0,
				CountryCode: []string{"CN", "US", "BR"}[n%3],
				DetectedAt:  t0.Add(time.Duration(n) * time.Minute),
				TargetPorts: map[uint16]int{23: n},
			}
		}
		c := New(coll, Config{Clock: func() time.Time { return t0 }})
		defer c.Close()
		ref := refBuild(t, coll.Export(), nil)
		checkAgainstRef(t, c.Current(), ref)
		rebuild := func() {
			snap := c.Rebuild()
			ref = refBuild(t, coll.Export(), ref)
			checkAgainstRef(t, snap, ref)
		}
		pick := func(arg int) (store.ObjectID, bool) {
			if len(ids) == 0 {
				return "", false
			}
			return ids[arg%len(ids)], true
		}
		for _, b := range steps {
			op, arg := b%6, int(b/6)
			switch op {
			case 0: // insert, stamped up to a day past t0
				ids = append(ids, coll.Insert(t0.Add(time.Duration(arg%24)*time.Hour), record(len(ids)+arg)))
			case 1: // an update that changes the bytes
				if id, ok := pick(arg); ok {
					coll.Update(id, func(r *feed.Record) {
						r.Active = !r.Active
						r.ScanRatePPS += 1
					})
				}
			case 2: // an update that keeps the bytes
				if id, ok := pick(arg); ok {
					coll.Update(id, func(r *feed.Record) { r.Active = !r.Active; r.Active = !r.Active })
				}
			case 3: // an expiry sweep
				coll.Expire(t0.Add(time.Duration(arg%24) * time.Hour))
			case 4: // a restore: as exported, with one record changed, or with one twice
				docs := coll.Export()
				if len(docs) > 0 {
					d := docs[arg/3%len(docs)]
					switch arg % 3 {
					case 1:
						d.Value.Vendor += "x"
						docs[arg/3%len(docs)] = d
					case 2:
						docs = append(docs, d)
					}
				}
				coll.Restore(docs)
			case 5:
				rebuild()
			}
		}
		rebuild()
	})
}

// TestRebuildMarshalsOnlyChanged counts the records a rebuild encodes:
// none when nothing was written, exactly k after k writes to distinct
// records (whether or not their bytes changed), none after an expiry
// sweep, and every record after a restore, which hands out fresh
// versions.
func TestRebuildMarshalsOnlyChanged(t *testing.T) {
	for _, n := range []int{1_000, 20_000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			coll, c, ids := newCache(t, n)
			if got := c.Current().marshaled; got != n {
				t.Fatalf("first build marshaled %d of %d records", got, n)
			}
			if got := c.Rebuild().marshaled; got != 0 {
				t.Fatalf("a rebuild with no writes marshaled %d records", got)
			}

			const k = 60
			for j := 0; j < k-10; j++ {
				id := ids[j*(n/k)]
				if j%2 == 0 {
					coll.Update(id, func(r *feed.Record) { r.Active = false })
				} else {
					coll.Update(id, func(*feed.Record) {})
				}
			}
			for j := 0; j < 10; j++ {
				coll.Insert(t0.Add(time.Duration(n+j)*time.Minute), rec(ipFor(j), true))
			}
			if got := c.Rebuild().marshaled; got != k {
				t.Fatalf("after %d writes to distinct records a rebuild marshaled %d", k, got)
			}

			coll.Expire(t0.Add(time.Duration(n/2) * time.Minute))
			if got := c.Rebuild(); got.marshaled != 0 || got.Len() != n-n/2+10 {
				t.Fatalf("after an expiry sweep: %d records, %d marshaled", got.Len(), got.marshaled)
			}

			coll.Restore(coll.Export())
			if got := c.Rebuild(); got.marshaled != got.Len() {
				t.Fatalf("after a restore a rebuild marshaled %d of %d records", got.marshaled, got.Len())
			}
		})
	}
}
