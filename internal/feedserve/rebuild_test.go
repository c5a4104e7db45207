package feedserve

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"sync"
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

// checkGzip fails t unless snap's gzip export is exactly the one a
// snapshot built from scratch over docs and versions serves, and is one
// gzip member that decompresses to snap's export with nothing after it.
func checkGzip(t *testing.T, snap *Snapshot, docs []store.Doc[feed.Record], versions []uint64) {
	t.Helper()
	var lastSeq uint64
	scratch, err := buildSnapshot(docs, versions, nil, &lastSeq, t0)
	if err != nil {
		t.Fatal(err)
	}
	gz := snap.ExportGzip()
	if !bytes.Equal(gz, scratch.ExportGzip()) {
		t.Fatalf("gzip export (%d B) differs from a from-scratch build's (%d B)", len(gz), len(scratch.ExportGzip()))
	}
	br := bytes.NewReader(gz)
	zr, err := gzip.NewReader(br)
	if err != nil {
		t.Fatal(err)
	}
	zr.Multistream(false)
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, snap.ExportNDJSON()) {
		t.Fatal("gzip export does not decompress to the export")
	}
	if n, err := zr.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("read past the gzip member: %d bytes, %v", n, err)
	}
	if br.Len() != 0 {
		t.Fatalf("%d bytes follow the gzip member", br.Len())
	}
}

// FuzzSnapshotRebuild runs a collection through the mutations the feed
// sees — inserts, updates that change a record's bytes and updates that
// keep them, expiry sweeps, and restores, with a record changed or
// listed twice — rebuilding the cache after each batch, and asking for
// the gzip export after some rebuilds only. Every rebuild, which
// re-encodes only records whose store version moved, must serve what
// the full rebuild serves over the same history: the same export,
// fingerprint, LastSeq and sequence number per record. Every gzip
// export, built from blocks earlier snapshots may have deflated, must
// equal a from-scratch build's, byte for byte.
//
// Each input byte is one step: b%7 picks the operation and b/7 its
// argument.
func FuzzSnapshotRebuild(f *testing.F) {
	f.Add([]byte{5}) // an empty feed
	f.Add([]byte{0, 7, 14, 5, 1, 8, 2, 5})
	f.Add([]byte{0, 0, 0, 0, 5, 1, 15, 5, 2, 9, 5, 3, 5, 4, 5, 1, 5})
	f.Add([]byte{0, 7, 14, 21, 5, 11, 5, 10, 17, 5, 0, 3, 5})
	f.Add([]byte{0, 7, 5, 2, 2, 5, 1, 1, 5, 4, 1, 5})
	f.Add([]byte{0, 7, 14, 5, 18, 5, 1, 5, 39, 5, 3, 5})
	f.Add([]byte{0, 7, 14, 21, 28, 6, 1, 6, 0, 7, 6, 5, 10, 6, 24, 5, 8, 6, 4, 6, 5})
	// An expiry sweep that takes the newest-inserted record only, so the
	// last block keeps its first lines but loses its tail.
	f.Add([]byte{161, 112, 5, 122, 5})
	// Several hundred records, so several blocks: rebuilds with and
	// without gzip around writes, an expiry sweep of the oldest 150
	// records and a restore.
	many := append(bytes.Repeat([]byte{98}, 10), bytes.Repeat([]byte{105}, 14)...)
	f.Add(append(many, 6, 8, 5, 108, 6, 5, 105, 105, 6, 5, 2, 6, 4, 6, 5))

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
		rebuild := func(gz bool) {
			snap := c.Rebuild()
			docs, versions := coll.ExportVersions()
			ref = refBuild(t, docs, ref)
			checkAgainstRef(t, snap, ref)
			if gz {
				checkGzip(t, snap, docs, versions)
			}
		}
		pick := func(arg int) (store.ObjectID, bool) {
			if len(ids) == 0 {
				return "", false
			}
			return ids[arg%len(ids)], true
		}
		for _, b := range steps {
			op, arg := b%7, int(b/7)
			switch op {
			case 0: // 1 to 16 inserts, stamped up to a day past t0
				for j := 0; j <= arg%16; j++ {
					ids = append(ids, coll.Insert(t0.Add(time.Duration(arg%24)*time.Hour), record(len(ids)+arg)))
				}
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
				rebuild(true)
			case 6: // a rebuild nobody asks the gzip export of
				rebuild(false)
			}
		}
		rebuild(true)
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

// pending counts snap's blocks that no snapshot has deflated yet.
func pending(snap *Snapshot) int {
	n := 0
	for _, p := range snap.parts {
		if p.blk.z == nil {
			n++
		}
	}
	return n
}

// TestGzipCompressesOnlyChanged counts the blocks a gzip export
// deflates: none at a rebuild; every block at the first gzip request;
// at most k+1 after k writes to distinct records (each write changes
// one block, and appends may also start new ones after the old last
// block); at most one after an expiry sweep, which cuts into the first
// block only; every block after a restore, which hands out fresh
// versions; and none when nothing was written, or when asked again.
func TestGzipCompressesOnlyChanged(t *testing.T) {
	const n = 20_000
	coll, c, ids := newCache(t, n)
	snap := c.Current()
	if len(snap.parts) < n/blockCut/2 || len(snap.parts) > 2*n/blockCut {
		t.Fatalf("%d records cut into %d blocks, want about %d", n, len(snap.parts), n/blockCut)
	}
	if got := pending(snap); got != len(snap.parts) {
		t.Fatalf("a build deflated %d of %d blocks", len(snap.parts)-got, len(snap.parts))
	}
	gz := snap.ExportGzip()
	if snap.compressed != len(snap.parts) {
		t.Fatalf("the first gzip export deflated %d of %d blocks", snap.compressed, len(snap.parts))
	}
	if again := snap.ExportGzip(); &again[0] != &gz[0] || snap.compressed != len(snap.parts) {
		t.Fatal("a repeat call built the gzip export again")
	}
	// ask rebuilds, checks the rebuild deflated nothing, then asks for
	// the gzip export and returns how many blocks that deflated.
	ask := func() int {
		t.Helper()
		snap := c.Rebuild()
		want := pending(snap)
		if snap.ExportGzip(); snap.compressed != want {
			t.Fatalf("a gzip export deflated %d blocks, %d were pending", snap.compressed, want)
		}
		return snap.compressed
	}
	if got := ask(); got != 0 {
		t.Fatalf("with no writes a gzip export deflated %d blocks", got)
	}

	const k = 60
	for j := 0; j < k-10; j++ {
		coll.Update(ids[j*(n/k)], func(r *feed.Record) { r.Active = false })
	}
	for j := 0; j < 10; j++ {
		coll.Insert(t0.Add(time.Duration(n+j)*time.Minute), rec(ipFor(j), true))
	}
	if got := ask(); got < 1 || got > k+1 {
		t.Fatalf("after %d writes to distinct records a gzip export deflated %d blocks", k, got)
	}

	coll.Expire(t0.Add(time.Duration(n/2) * time.Minute))
	if got := ask(); got > 1 {
		t.Fatalf("after an expiry sweep a gzip export deflated %d blocks", got)
	}

	coll.Restore(coll.Export())
	snap = c.Rebuild()
	if snap.ExportGzip(); snap.compressed != len(snap.parts) {
		t.Fatalf("after a restore a gzip export deflated %d of %d blocks", snap.compressed, len(snap.parts))
	}
}

// TestExportGzipConcurrent asks for the gzip export of a snapshot and
// of two successors from many goroutines at once: one that shares every
// block and one that shares all but the blocks written to. Every caller
// of a snapshot gets the same bytes, the first two snapshots serve
// identical bytes, and each export decompresses to its NDJSON.
func TestExportGzipConcurrent(t *testing.T) {
	coll, c, ids := newCache(t, 3_000)
	a := c.Current()
	b := c.Rebuild()
	for j := 0; j < 20; j++ {
		coll.Update(ids[j*150], func(r *feed.Record) { r.Active = false })
	}
	d := c.Rebuild()
	snaps := []*Snapshot{a, b, d, a, b, d, a, b, d}
	got := make([][]byte, len(snaps))
	var wg sync.WaitGroup
	for i := range snaps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = snaps[i].ExportGzip()
		}()
	}
	wg.Wait()
	for i := range snaps {
		if !bytes.Equal(got[i], got[i%3]) {
			t.Fatalf("caller %d got other bytes than caller %d of the same snapshot", i, i%3)
		}
	}
	if !bytes.Equal(got[0], got[1]) {
		t.Fatal("a successor sharing every block serves other gzip bytes")
	}
	for i, snap := range []*Snapshot{a, d} {
		zr, err := gzip.NewReader(bytes.NewReader(snap.ExportGzip()))
		if err != nil {
			t.Fatal(err)
		}
		if raw, err := io.ReadAll(zr); err != nil || !bytes.Equal(raw, snap.ExportNDJSON()) {
			t.Fatalf("snapshot %d: gzip export does not decompress to its export (%v)", i, err)
		}
	}
}

// TestGzipExportSystemGunzip pipes a gzip export that joins blocks an
// earlier snapshot deflated with freshly deflated ones through the
// system's gzip -dc, which must print the raw export. Without gzip on
// PATH the test skips, except in CI, where it fails.
func TestGzipExportSystemGunzip(t *testing.T) {
	gunzip, err := exec.LookPath("gzip")
	if err != nil {
		if os.Getenv("CI") != "" {
			t.Fatalf("gzip is not on PATH: %v", err)
		}
		t.Skip("gzip is not on PATH")
	}
	coll, c, ids := newCache(t, 3_000)
	c.Current().ExportGzip()
	for j := 0; j < 10; j++ {
		coll.Update(ids[j*300], func(r *feed.Record) { r.Active = false })
	}
	snap := c.Rebuild()
	gz := snap.ExportGzip()
	if snap.compressed == 0 || snap.compressed == len(snap.parts) {
		t.Fatalf("%d of %d blocks freshly deflated, want a mix", snap.compressed, len(snap.parts))
	}
	cmd := exec.Command(gunzip, "-dc")
	cmd.Stdin = bytes.NewReader(gz)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	raw, err := cmd.Output()
	if err != nil {
		t.Fatalf("gzip -dc: %v: %s", err, stderr.Bytes())
	}
	if !bytes.Equal(raw, snap.ExportNDJSON()) {
		t.Fatalf("gzip -dc printed %d bytes, the export is %d", len(raw), len(snap.ExportNDJSON()))
	}
}
