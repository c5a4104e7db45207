package feedserve

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"testing"
	"time"

	"exiot/internal/feed"
	"exiot/internal/store"
)

var t0 = time.Date(2020, 12, 9, 0, 0, 0, 0, time.UTC)

func rec(ip string, active bool) feed.Record {
	return feed.Record{
		IP:          ip,
		Label:       feed.LabelIoT,
		Active:      active,
		CountryCode: "CN",
		DetectedAt:  t0,
		TargetPorts: map[uint16]int{23: 100},
	}
}

func newCache(t *testing.T, n int) (*store.Collection[feed.Record], *Cache, []store.ObjectID) {
	t.Helper()
	coll := store.NewCollection[feed.Record]()
	ids := make([]store.ObjectID, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, coll.Insert(t0.Add(time.Duration(i)*time.Minute), rec(ipFor(i), true)))
	}
	c := New(coll, Config{Clock: func() time.Time { return t0 }})
	t.Cleanup(c.Close)
	return coll, c, ids
}

// items returns the snapshot's items in insertion order.
func items(s *Snapshot) []*Item {
	var out []*Item
	for _, b := range s.parts {
		for i := range b.items {
			out = append(out, &b.items[i])
		}
	}
	return out
}

func ipFor(i int) string {
	return string(rune('a'+i%26)) + ".example" // not a real IP; records don't require one
}

func TestSnapshotExportMatchesStoreWalk(t *testing.T) {
	coll, c, _ := newCache(t, 5)

	// The reference bytes: walk the store and encode with the legacy
	// export settings (json.Encoder, HTML escaping off).
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetEscapeHTML(false)
	for _, r := range coll.Find(nil) {
		if err := enc.Encode(&r); err != nil {
			t.Fatal(err)
		}
	}
	snap := c.Current()
	if !bytes.Equal(snap.ExportNDJSON(), want.Bytes()) {
		t.Fatalf("snapshot export differs from store-walked encoding:\n%s\nvs\n%s",
			snap.ExportNDJSON(), want.Bytes())
	}

	// The gzip variant decompresses to the same bytes.
	zr, err := gzip.NewReader(bytes.NewReader(snap.ExportGzip()))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want.Bytes()) {
		t.Fatal("gzip export does not round-trip to the raw export")
	}

	// Item lines concatenate back to the export, which WriteTo writes
	// and Size measures.
	var cat, written bytes.Buffer
	for _, it := range items(snap) {
		cat.Write(it.Line)
	}
	if !bytes.Equal(cat.Bytes(), snap.ExportNDJSON()) {
		t.Fatal("item lines do not concatenate to the export")
	}
	if n, err := snap.WriteTo(&written); err != nil || n != int64(snap.Size()) || !bytes.Equal(written.Bytes(), want.Bytes()) {
		t.Fatalf("WriteTo wrote %d bytes (%v), Size is %d, export %d", n, err, snap.Size(), want.Len())
	}
}

func TestSequenceAssignment(t *testing.T) {
	coll, c, ids := newCache(t, 3)
	snap := c.Current()
	if snap.Len() != 3 || snap.LastSeq() != 3 {
		t.Fatalf("initial snapshot: len=%d lastSeq=%d, want 3/3", snap.Len(), snap.LastSeq())
	}
	for i, it := range items(snap) {
		if it.Seq != uint64(i+1) {
			t.Fatalf("item %d has seq %d, want %d (insertion order)", i, it.Seq, i+1)
		}
	}

	// A no-op rebuild keeps every sequence and the fingerprint.
	fp := snap.Fingerprint()
	snap2 := c.Rebuild()
	if snap2.LastSeq() != 3 || snap2.Fingerprint() != fp {
		t.Fatalf("no-op rebuild changed state: lastSeq=%d fp=%x vs %x", snap2.LastSeq(), snap2.Fingerprint(), fp)
	}

	// An update re-sequences only the touched record; an insert extends.
	coll.Update(ids[1], func(r *feed.Record) { r.Active = false })
	coll.Insert(t0.Add(time.Hour), rec("new.example", true))
	snap3 := c.Rebuild()
	if snap3.Len() != 4 || snap3.LastSeq() != 5 {
		t.Fatalf("after update+insert: len=%d lastSeq=%d, want 4/5", snap3.Len(), snap3.LastSeq())
	}
	seqs := []uint64{}
	for _, it := range items(snap3) {
		seqs = append(seqs, it.Seq)
	}
	// Insertion order: [kept(1), updated(4), kept(3), new(5)].
	want := []uint64{1, 4, 3, 5}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("seqs = %v, want %v", seqs, want)
		}
	}
	if snap3.Fingerprint() == fp {
		t.Fatal("fingerprint did not change after mutations")
	}

	// Delta query: everything after the original lastSeq, in seq order.
	delta := snap3.ItemsSince(3)
	if len(delta) != 2 || delta[0].Seq != 4 || delta[1].Seq != 5 {
		t.Fatalf("ItemsSince(3) = %v items", len(delta))
	}
	if delta[0].Rec.Active || delta[0].Rec.IP == "" {
		t.Fatalf("delta[0] should be the flow-ended record, got %+v", delta[0].Rec)
	}
	if len(snap3.ItemsSince(5)) != 0 {
		t.Fatal("ItemsSince(lastSeq) should be empty")
	}

	// A removal changes the fingerprint even with no new sequences.
	fp3 := snap3.Fingerprint()
	coll.Expire(t0.Add(time.Second)) // only ids[0] is stamped before it
	snap4 := c.Rebuild()
	if snap4.Len() != 3 || snap4.Fingerprint() == fp3 {
		t.Fatalf("expire: len=%d, fingerprint changed=%v", snap4.Len(), snap4.Fingerprint() != fp3)
	}
	if snap4.LastSeq() != 5 {
		t.Fatalf("expire minted a sequence: lastSeq=%d", snap4.LastSeq())
	}
}

func TestInvalidateDrivesBackgroundRebuild(t *testing.T) {
	coll := store.NewCollection[feed.Record]()
	c := New(coll, Config{RebuildEvery: time.Millisecond})
	defer c.Close()
	c.Start()

	coll.Insert(t0, rec("x.example", true)) // hook marks dirty + wakes loop
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.Current().Len() == 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("background loop never rebuilt the snapshot after a store mutation")
}

func TestSubscribeReplayAndBroadcast(t *testing.T) {
	coll, c, _ := newCache(t, 2)

	// Replay: everything after seq 1.
	replay, sub := c.Subscribe(1)
	defer c.Unsubscribe(sub)
	if len(replay) != 1 || replay[0].Seq != 2 {
		t.Fatalf("replay = %+v, want one event with seq 2", replay)
	}
	if !bytes.Contains(replay[0].Frame, []byte("id: 2\nevent: record\ndata: {")) {
		t.Fatalf("frame = %q", replay[0].Frame)
	}
	if bytes.Contains(replay[0].Frame, []byte("data: {\n")) {
		t.Fatal("frame data must be a single line")
	}

	// A write broadcast after subscribing lands on the queue.
	coll.Insert(t0.Add(time.Hour), rec("z.example", true))
	c.Rebuild()
	select {
	case ev := <-sub.C:
		if ev.Seq != 3 {
			t.Fatalf("broadcast seq = %d, want 3", ev.Seq)
		}
	case <-time.After(time.Second):
		t.Fatal("no broadcast after rebuild")
	}
}

func TestLaggingSubscriberIsDropped(t *testing.T) {
	coll, c, _ := newCache(t, 1)
	_, sub := c.Subscribe(0)
	// Never drain: overflow the queue.
	for i := 0; i < subscriberBuffer+8; i++ {
		coll.Insert(t0.Add(time.Duration(i)*time.Second), rec(ipFor(i), true))
		c.Rebuild()
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		drained := 0
		closed := false
		for {
			if _, ok := <-sub.C; !ok {
				closed = true
				break
			}
			drained++
			if drained > subscriberBuffer+16 {
				break
			}
		}
		if closed {
			return // dropped, as designed
		}
	}
	t.Fatal("lagging subscriber was never dropped")
}

func TestCloseDisconnectsSubscribers(t *testing.T) {
	_, c, _ := newCache(t, 1)
	_, sub := c.Subscribe(0)
	c.Close()
	select {
	case _, ok := <-sub.C:
		if ok {
			return // drained the replayed broadcast? No broadcasts occurred; must be closed
		}
	case <-time.After(time.Second):
		t.Fatal("subscriber channel not closed on Close")
	}
}

func TestOnRebuildHook(t *testing.T) {
	coll, c, _ := newCache(t, 2)

	var calls []int
	c.OnRebuild(func(s *Snapshot) { calls = append(calls, s.Len()) })

	// Hook sees each successful rebuild's snapshot.
	c.Rebuild()
	coll.Insert(t0.Add(time.Hour), rec("z.example", true))
	c.Rebuild()
	if len(calls) != 2 || calls[0] != 2 || calls[1] != 3 {
		t.Fatalf("hook calls = %v, want [2 3]", calls)
	}

	// EachRecord visits the snapshot's decoded items in export order.
	var ips []string
	c.Current().EachRecord(func(r *feed.Record) { ips = append(ips, r.IP) })
	if len(ips) != 3 || ips[2] != "z.example" {
		t.Fatalf("EachRecord visited %d records, last %q", len(ips), ips[len(ips)-1])
	}

	// A hook may call back into the cache without deadlocking.
	c.OnRebuild(func(s *Snapshot) { _ = c.Current() })
	coll.Expire(t0.Add(time.Second)) // only the first record is stamped before it
	c.Rebuild()
	if got := calls[len(calls)-1]; got != 2 {
		t.Fatalf("hook after removal saw %d records, want 2", got)
	}
}
