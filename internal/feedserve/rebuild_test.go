package feedserve

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"exiot/internal/allocbudget"
	"exiot/internal/campaign"
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
	recs    []feed.Record
	lines   [][]byte
	lineOf  map[store.ObjectID][]byte
	seqByID map[store.ObjectID]uint64
	lastSeq uint64
}

// refBuild is the full rebuild over docs, after prev (nil first).
func refBuild(t *testing.T, docs []store.Doc[feed.Record], prev *refSnapshot) *refSnapshot {
	t.Helper()
	ref := &refSnapshot{lineOf: map[store.ObjectID][]byte{}, seqByID: map[store.ObjectID]uint64{}}
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
		line := append([]byte(nil), buf.Bytes()[start:]...)
		seq := uint64(0)
		if prev != nil && bytes.Equal(prev.lineOf[d.ID], line) {
			seq = prev.seqByID[d.ID]
		}
		if seq == 0 {
			ref.lastSeq++
			seq = ref.lastSeq
		}
		ref.ids = append(ref.ids, d.ID)
		ref.seqs = append(ref.seqs, seq)
		ref.recs = append(ref.recs, d.Value)
		ref.lines = append(ref.lines, line)
		ref.lineOf[d.ID] = line
		ref.seqByID[d.ID] = seq
	}
	ref.export = buf.Bytes()
	return ref
}

// scratchBuild is the snapshot a new cache builds first over docs: one
// built from nothing, with no earlier snapshot to share blocks with.
func scratchBuild(docs []store.Doc[feed.Record]) *Snapshot {
	coll := store.NewCollection[feed.Record]()
	coll.Restore(docs)
	c := New(coll, Config{Clock: func() time.Time { return t0 }})
	c.Close()
	return c.Current()
}

// checkAgainstRef fails t unless snap serves exactly what ref built,
// with the fingerprint of scratch, a from-scratch build over the same
// documents.
func checkAgainstRef(t *testing.T, snap, scratch *Snapshot, ref *refSnapshot) {
	t.Helper()
	if !bytes.Equal(snap.ExportNDJSON(), ref.export) || snap.Size() != len(ref.export) {
		t.Fatalf("export (size %d) differs from the full rebuild:\n got %q\nwant %q", snap.Size(), snap.ExportNDJSON(), ref.export)
	}
	if snap.Fingerprint() != scratch.Fingerprint() {
		t.Fatalf("fingerprint %x, from-scratch build %x", snap.Fingerprint(), scratch.Fingerprint())
	}
	if snap.LastSeq() != ref.lastSeq {
		t.Fatalf("LastSeq %d, full rebuild %d", snap.LastSeq(), ref.lastSeq)
	}
	items := items(snap)
	if len(items) != len(ref.ids) || snap.Len() != len(ref.ids) {
		t.Fatalf("%d items (Len %d), full rebuild %d", len(items), snap.Len(), len(ref.ids))
	}
	for i := range items {
		if items[i].ID != ref.ids[i] || items[i].Seq != ref.seqs[i] {
			t.Fatalf("item %d is %s seq %d, full rebuild %s seq %d", i, items[i].ID, items[i].Seq, ref.ids[i], ref.seqs[i])
		}
	}
	checkWindows(t, snap, ref)
}

// checkWindows fails t unless every cursor page and every latest-n
// window of snap selects what the full rebuild's order selects: pages at
// cursor 0, a middle sequence number and LastSeq, and windows, each
// with and without a filter, at several lengths.
func checkWindows(t *testing.T, snap *Snapshot, ref *refSnapshot) {
	t.Helper()
	bySeq := make([]int, len(ref.seqs))
	for i := range bySeq {
		bySeq[i] = i
	}
	sort.SliceStable(bySeq, func(a, b int) bool { return ref.seqs[bySeq[a]] < ref.seqs[bySeq[b]] })
	filters := map[string]func(*feed.Record) bool{
		"all":    nil,
		"active": func(r *feed.Record) bool { return r.Active },
		"CN":     func(r *feed.Record) bool { return r.CountryCode == "CN" },
	}
	// same fails t unless got holds the items at ref positions want.
	same := func(what string, got []*Item, want []int) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d items, full rebuild %d", what, len(got), len(want))
		}
		for j, i := range want {
			if got[j].ID != ref.ids[i] || got[j].Seq != ref.seqs[i] || !bytes.Equal(got[j].Line, ref.lines[i]) {
				t.Fatalf("%s: item %d is %s seq %d, full rebuild %s seq %d", what, j, got[j].ID, got[j].Seq, ref.ids[i], ref.seqs[i])
			}
		}
	}
	for name, match := range filters {
		for _, n := range []int{0, 1, 5} {
			for _, after := range []uint64{0, ref.lastSeq / 2, ref.lastSeq} {
				var want []int
				for _, i := range bySeq {
					if ref.seqs[i] > after && (match == nil || match(&ref.recs[i])) && (n <= 0 || len(want) < n) {
						want = append(want, i)
					}
				}
				same(fmt.Sprintf("ItemsAfter(%d, %d, %s)", after, n, name), snap.ItemsAfter(after, n, match), want)
			}
			var want []int
			for i := len(ref.ids) - 1; i >= 0 && (n <= 0 || len(want) < n); i-- {
				if match == nil || match(&ref.recs[i]) {
					want = append(want, i)
				}
			}
			slices.Reverse(want)
			same(fmt.Sprintf("Latest(%d, %s)", n, name), snap.Latest(n, match), want)
		}
	}
}

// checkGzip fails t unless snap's gzip export is exactly the one scratch,
// a from-scratch build over the same documents, serves, and is one gzip
// member that decompresses to snap's export with nothing after it.
func checkGzip(t *testing.T, snap, scratch *Snapshot) {
	t.Helper()
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
// LastSeq and sequence number per record, the same cursor pages and
// latest-n windows, and a from-scratch build's fingerprint, which
// changes exactly when the export does. Every gzip export, built from
// blocks earlier snapshots may have deflated, must equal a from-scratch
// build's, byte for byte.
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
		last := c.Current()
		checkAgainstRef(t, last, scratchBuild(nil), ref)
		rebuild := func(gz bool) {
			snap := c.Rebuild()
			docs := coll.Export()
			scratch := scratchBuild(docs)
			ref = refBuild(t, docs, ref)
			checkAgainstRef(t, snap, scratch, ref)
			if bytes.Equal(snap.ExportNDJSON(), last.ExportNDJSON()) != (snap.Fingerprint() == last.Fingerprint()) {
				t.Fatalf("the export changed %v, the fingerprint %x → %x", !bytes.Equal(snap.ExportNDJSON(), last.ExportNDJSON()), last.Fingerprint(), snap.Fingerprint())
			}
			last = snap
			if gz {
				checkGzip(t, snap, scratch)
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
	for _, b := range snap.parts {
		if b.z == nil {
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

// pollShape is record i of a feed shaped like the consumer-poll
// benchmark's: about 390 bytes of NDJSON, most fields set.
func pollShape(rng *rand.Rand, i int) feed.Record {
	first := t0.Add(time.Duration(i) * time.Second)
	rec := feed.Record{
		IP:          fmt.Sprintf("100.%d.%d.%d", i/65536%256, i/256%256, i%256),
		FirstSeen:   first,
		DetectedAt:  first.Add(time.Duration(60+rng.Intn(600)) * time.Second),
		LastSeen:    first.Add(time.Duration(900+rng.Intn(3600)) * time.Second),
		AppearedAt:  first.Add(4 * time.Hour),
		Active:      rng.Intn(2) == 0,
		Label:       feed.LabelNonIoT,
		Score:       rng.Float64(),
		LabelSource: feed.SourceModel,
		CountryCode: []string{"CN", "US", "BR", "IN", "RU", "VN", "KR", "TW"}[rng.Intn(8)],
		ASN:         4000 + rng.Intn(200),
		Vendor:      []string{"MikroTik", "Hikvision", "Dahua", "TP-Link", "Huawei", ""}[rng.Intn(6)],
		TargetPorts: map[uint16]int{23: 100 + rng.Intn(100), 2323: rng.Intn(40), 80: rng.Intn(20)},
		ScanRatePPS: 1 + 9*rng.Float64(),
	}
	if rec.Score >= 0.5 {
		rec.Label = feed.LabelIoT
	}
	return rec
}

// allocated returns the bytes fn allocates, on every goroutine.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRebuildAllocatesWhatChanged bounds the bytes one rebuild allocates
// after what the consumer-poll benchmark's writer does between two
// rebuilds: 160 inserts and 160 updates to consecutive records. That
// rebuild may allocate 2 MB at 20k records and 4 MB at 200k, and a
// rebuild with no writes 256 KB at 200k: a rebuild allocates for the
// blocks that changed and a few words per record, never a copy of the
// store or of the export. The 200k arm needs about 500 MB and skips
// under -short; the test skips under -race, where sync.Pool drops items
// at random.
func TestRebuildAllocatesWhatChanged(t *testing.T) {
	allocbudget.SkipUnderRace(t)
	for _, c := range []struct {
		records       int
		written, idle uint64 // ceilings in bytes; 0 checks nothing
	}{
		{20_000, 2 << 20, 0},
		{200_000, 4 << 20, 256 << 10},
	} {
		t.Run(fmt.Sprint(c.records), func(t *testing.T) {
			if c.records > 20_000 && testing.Short() {
				t.Skip("200k records need about 500 MB")
			}
			// Collect early, so the heap stays near what is live; the
			// byte counts do not depend on when collections run.
			defer debug.SetGCPercent(debug.SetGCPercent(25))
			rng := rand.New(rand.NewSource(2021))
			coll := store.NewCollection[feed.Record]()
			ids := make([]store.ObjectID, 0, c.records+160)
			for i := 0; i < c.records; i++ {
				ids = append(ids, coll.Insert(t0.Add(time.Duration(i)*time.Second), pollShape(rng, i)))
			}
			cache := New(coll, Config{Clock: func() time.Time { return t0 }})
			defer cache.Close()
			cache.Rebuild() // the builder's buffers reach their size

			for j := 0; j < 160; j++ {
				i := len(ids)
				ids = append(ids, coll.Insert(t0.Add(time.Duration(i)*time.Second), pollShape(rng, i)))
			}
			for j := 0; j < 160; j++ {
				coll.Update(ids[j], func(r *feed.Record) { r.Active = !r.Active })
			}
			var snap *Snapshot
			got := allocated(func() { snap = cache.Rebuild() })
			t.Logf("after 160 inserts and 160 updates: %d records, %d marshaled, %d B allocated (ceiling %d)", snap.Len(), snap.marshaled, got, c.written)
			if snap.marshaled != 320 || snap.Len() != c.records+160 {
				t.Fatalf("the rebuild marshaled %d records and holds %d", snap.marshaled, snap.Len())
			}
			if got > c.written {
				t.Errorf("a rebuild after 320 writes allocated %d B at %d records, over %d", got, c.records, c.written)
			}
			if c.idle > 0 {
				got := allocated(func() { snap = cache.Rebuild() })
				t.Logf("with no writes: %d B allocated (ceiling %d)", got, c.idle)
				if got > c.idle {
					t.Errorf("a rebuild with no writes allocated %d B at %d records, over %d", got, c.records, c.idle)
				}
			}
		})
	}
}

// TestCampaignHookAllocates bounds what exiotd's campaign hook, a
// tracker update over the rebuilt snapshot, allocates at 20k records
// shaped like the consumer-poll benchmark's: 5 MB. The tracker reads the
// records in place; a copy of them would add about 10 MB. The test skips
// under -race, where sync.Pool drops items at random.
func TestCampaignHookAllocates(t *testing.T) {
	allocbudget.SkipUnderRace(t)
	const records, ceiling = 20_000, 5 << 20
	rng := rand.New(rand.NewSource(2021))
	coll := store.NewCollection[feed.Record]()
	for i := 0; i < records; i++ {
		coll.Insert(t0.Add(time.Duration(i)*time.Second), pollShape(rng, i))
	}
	cache := New(coll, Config{Clock: func() time.Time { return t0 }})
	defer cache.Close()
	tracker := campaign.NewTracker()
	var hook uint64
	cache.OnRebuild(func(s *Snapshot) {
		hook = allocated(func() { tracker.Update(s.EachRecord, s.BuiltAt()) })
	})
	cache.Rebuild()
	t.Logf("%d records: the hook allocated %d B (ceiling %d), %d campaigns", records, hook, ceiling, len(tracker.Campaigns()))
	if len(tracker.Campaigns()) == 0 {
		t.Fatal("the hook inferred no campaign")
	}
	if hook > ceiling {
		t.Errorf("the campaign hook allocated %d B at %d records, over %d", hook, records, ceiling)
	}
}

// TestServeSharedSnapshotsDuringRebuild serves three snapshots that
// share blocks, each from several goroutines (the identity export a
// block at a time and in one slice, the gzip export, cursor pages and
// latest-n windows), while a fourth rebuild runs over writes that
// change, append and expire records. Run it under -race: the rebuild
// reads the blocks the readers read and must write none of them.
func TestServeSharedSnapshotsDuringRebuild(t *testing.T) {
	coll, c, ids := newCache(t, 3_000)
	a := c.Current()
	for j := 0; j < 20; j++ {
		coll.Update(ids[j*150], func(r *feed.Record) { r.Active = false })
	}
	b := c.Rebuild()
	for j := 0; j < 30; j++ {
		coll.Insert(t0.Add(time.Duration(3_000+j)*time.Minute), rec(ipFor(j), j%2 == 0))
	}
	d := c.Rebuild()
	for j := 0; j < 40; j++ {
		coll.Update(ids[j*70+1], func(r *feed.Record) { r.ScanRatePPS++ })
	}
	coll.Expire(t0.Add(100 * time.Minute))

	snaps := []*Snapshot{a, b, d}
	exports := make([][]byte, len(snaps))
	for i, s := range snaps {
		exports[i] = s.ExportNDJSON()
	}
	active := func(r *feed.Record) bool { return r.Active }
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for r := 0; r < 4; r++ {
		for i, s := range snaps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf bytes.Buffer
				if _, err := s.WriteTo(&buf); err != nil || !bytes.Equal(buf.Bytes(), exports[i]) {
					errs <- fmt.Sprintf("snapshot %d: WriteTo wrote other bytes (%v)", i, err)
				}
				zr, err := gzip.NewReader(bytes.NewReader(s.ExportGzip()))
				if err != nil {
					errs <- fmt.Sprintf("snapshot %d: %v", i, err)
					return
				}
				if raw, err := io.ReadAll(zr); err != nil || !bytes.Equal(raw, exports[i]) {
					errs <- fmt.Sprintf("snapshot %d: gzip export does not decompress to the export (%v)", i, err)
				}
				seen := 0
				for after := uint64(0); ; {
					page := s.ItemsAfter(after, 500, nil)
					if len(page) == 0 {
						break
					}
					seen += len(page)
					after = page[len(page)-1].Seq
				}
				if seen != s.Len() {
					errs <- fmt.Sprintf("snapshot %d: cursor pages held %d of %d records", i, seen, s.Len())
				}
				if w := s.Latest(100, active); len(w) == 0 || !w[len(w)-1].Rec.Active {
					errs <- fmt.Sprintf("snapshot %d: a latest-100 window of active records has %d", i, len(w))
				}
				n := 0
				s.EachRecord(func(*feed.Record) { n++ })
				if n != s.Len() {
					errs <- fmt.Sprintf("snapshot %d: EachRecord visited %d of %d records", i, n, s.Len())
				}
			}()
		}
	}
	next := c.Rebuild()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	ref := refBuild(t, coll.Export(), nil)
	if !bytes.Equal(next.ExportNDJSON(), ref.export) {
		t.Fatal("the rebuild run beside the readers exports other bytes than the store")
	}
	for i, s := range snaps {
		if !bytes.Equal(s.ExportNDJSON(), exports[i]) {
			t.Fatalf("snapshot %d changed while a rebuild ran", i)
		}
	}
}
