package feedserve

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"exiot/internal/allocbudget"
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
	delta := snap3.ItemsAfter(3, 0, nil)
	if len(delta) != 2 || delta[0].Seq != 4 || delta[1].Seq != 5 {
		t.Fatalf("ItemsAfter(3) = %v items", len(delta))
	}
	if delta[0].Key.Active || delta[0].ip != ipFor(1) {
		t.Fatalf("delta[0] should be the flow-ended record, got %+v", delta[0].Key)
	}
	if len(snap3.ItemsAfter(5, 0, nil)) != 0 {
		t.Fatal("ItemsAfter(lastSeq) should be empty")
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

// stream is one event stream under test: Follow from a cursor into a
// pipe that nothing reads until read is called.
type stream struct {
	pr    *io.PipeReader
	first chan struct{} // closed at the stream's first write
	ended chan struct{} // closed when Follow returns
	// frames carries each frame read, without its blank line. It holds
	// more frames than any test writes, so the reader never blocks on a
	// test that has stopped taking them.
	frames chan string
}

func follow(t *testing.T, c *Cache, cursor uint64) *stream {
	t.Helper()
	pr, pw := io.Pipe()
	s := &stream{pr: pr, first: make(chan struct{}), ended: make(chan struct{}), frames: make(chan string, 1024)}
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	w := writerFunc(func(p []byte) (int, error) {
		once.Do(func() { close(s.first) })
		return pw.Write(p)
	})
	go func() {
		defer close(s.ended)
		c.Follow(ctx, w, func() {}, cursor, nil, nil)
		pw.Close()
	}()
	t.Cleanup(func() {
		cancel()
		pr.Close()
		<-s.ended
	})
	return s
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// read starts reading the stream's frames onto s.frames, which closes
// when the stream does.
func (s *stream) read() {
	go func() {
		defer close(s.frames)
		r := bufio.NewReader(s.pr)
		var frame strings.Builder
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			if line != "\n" {
				frame.WriteString(line)
				continue
			}
			s.frames <- frame.String()
			frame.Reset()
		}
	}()
}

// next returns the stream's next frame, or false once it has ended.
func (s *stream) next(t *testing.T) (string, bool) {
	t.Helper()
	select {
	case f, ok := <-s.frames:
		return f, ok
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a frame")
		return "", false
	}
}

// wantFrame fails unless the stream's next frame is it, in the old format.
func (s *stream) wantFrame(t *testing.T, it *Item) {
	t.Helper()
	got, ok := s.next(t)
	if !ok {
		t.Fatalf("the stream ended before seq %d", it.Seq)
	}
	if want := string(oldFrame(it.Seq, it.Line)); got+"\n" != want {
		t.Fatalf("frame = %q, want %q", got, want)
	}
}

// oldFrame is the frame format the event stream has always written: the
// sequence as its id, then the record's NDJSON line as one data line.
func oldFrame(seq uint64, line []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "id: %d\nevent: record\ndata: ", seq)
	b.Write(bytes.TrimRight(line, "\n"))
	b.WriteString("\n\n")
	return b.Bytes()
}

// itemOf returns the snapshot's item for id.
func itemOf(t *testing.T, snap *Snapshot, id store.ObjectID) *Item {
	t.Helper()
	for _, it := range items(snap) {
		if it.ID == id {
			return it
		}
	}
	t.Fatalf("the snapshot holds no record %v", id)
	return nil
}

func TestSubscribeReplayAndBroadcast(t *testing.T) {
	coll, c, ids := newCache(t, 2)

	// Replay: everything after seq 1.
	s := follow(t, c, 1)
	s.read()
	s.wantFrame(t, itemOf(t, c.Current(), ids[1]))

	// A write published after the replay is written live.
	id := coll.Insert(t0.Add(time.Hour), rec("z.example", true))
	snap := c.Rebuild()
	it := itemOf(t, snap, id)
	if it.Seq != 3 {
		t.Fatalf("the new record has seq %d, want 3", it.Seq)
	}
	s.wantFrame(t, it)
}

// TestStalledStreamCoalesces holds a stream's first write while several
// rebuilds change records: once its reader reads again, the stream
// writes each changed record once, at its latest sequence, in sequence
// order, and stays open.
func TestStalledStreamCoalesces(t *testing.T) {
	coll, c, ids := newCache(t, 3)
	s := follow(t, c, 2)
	<-s.first // blocked writing seq 3: nothing reads the pipe

	touch := func(id store.ObjectID) {
		coll.Update(id, func(r *feed.Record) { r.ASN++ })
		c.Rebuild()
	}
	touch(ids[0])
	touch(ids[1])
	touch(ids[0])
	added := coll.Insert(t0.Add(time.Hour), rec("z.example", true))
	c.Rebuild()
	touch(ids[1])
	snap := c.Current()
	if snap.LastSeq() != 8 {
		t.Fatalf("lastSeq = %d, want 8", snap.LastSeq())
	}

	s.read()
	s.wantFrame(t, itemOf(t, snap, ids[2])) // the frame in flight
	for _, id := range []store.ObjectID{ids[0], added, ids[1]} {
		s.wantFrame(t, itemOf(t, snap, id))
	}
	touch(ids[2])
	s.wantFrame(t, itemOf(t, c.Current(), ids[2]))
	select {
	case <-s.ended:
		t.Fatal("the stream ended")
	default:
	}
}

// TestCloseDisconnectsSubscribers ends streams by closing the cache. A
// stream held in a write while a snapshot is published and the cache
// closes finds both ready and takes either: in each of 20 rounds it must
// write the new record before it ends.
func TestCloseDisconnectsSubscribers(t *testing.T) {
	for round := 0; round < 20; round++ {
		coll, c, ids := newCache(t, 1)
		s := follow(t, c, 0)
		<-s.first // blocked writing seq 1: nothing reads the pipe
		id := coll.Insert(t0.Add(time.Hour), rec("z.example", true))
		c.Rebuild()
		c.Close()
		s.read()
		s.wantFrame(t, itemOf(t, c.Current(), ids[0]))
		s.wantFrame(t, itemOf(t, c.Current(), id))
		if f, ok := s.next(t); ok {
			t.Fatalf("round %d: the stream went on after Close: %q", round, f)
		}
	}

	// A stream opened after Close writes the snapshot and ends.
	_, c, ids := newCache(t, 2)
	c.Close()
	late := follow(t, c, 0)
	late.read()
	late.wantFrame(t, itemOf(t, c.Current(), ids[0]))
	late.wantFrame(t, itemOf(t, c.Current(), ids[1]))
	if f, ok := late.next(t); ok {
		t.Fatalf("a stream opened after Close went on: %q", f)
	}
}

// TestStreamWritesOldFrames replays a snapshot of more than one page,
// whose sequence order differs from its insertion order, and compares
// the bytes with the old frame format for every item.
func TestStreamWritesOldFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	coll := store.NewCollection[feed.Record]()
	var ids []store.ObjectID
	for i := 0; i < 3*streamPage; i++ {
		ids = append(ids, coll.Insert(t0.Add(time.Duration(i)*time.Second), pollShape(rng, i)))
	}
	c := New(coll, Config{Clock: func() time.Time { return t0 }})
	for i := 0; i < len(ids); i += 7 {
		coll.Update(ids[i], func(r *feed.Record) { r.Active = !r.Active })
	}
	c.Rebuild()
	c.Close()

	var want bytes.Buffer
	all := c.Current().ItemsAfter(0, 0, nil)
	for _, it := range all {
		want.Write(oldFrame(it.Seq, it.Line))
	}
	var got bytes.Buffer
	c.Follow(context.Background(), &got, func() {}, 0, nil, nil)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("the stream wrote %d bytes, the old frames of %d items are %d", got.Len(), len(all), want.Len())
	}
}

// TestStreamReplayAllocates bounds what a full replay of a 20k-record
// snapshot shaped like the consumer-poll benchmark's allocates: 16 B a
// record, the page of item pointers and one frame buffer, never a copy
// of the feed. It skips under -race, where sync.Pool drops items at
// random.
func TestStreamReplayAllocates(t *testing.T) {
	allocbudget.SkipUnderRace(t)
	const records, perRecord = 20_000, 16
	rng := rand.New(rand.NewSource(2021))
	coll := store.NewCollection[feed.Record]()
	for i := 0; i < records; i++ {
		coll.Insert(t0.Add(time.Duration(i)*time.Second), pollShape(rng, i))
	}
	c := New(coll, Config{Clock: func() time.Time { return t0 }})
	c.Close() // the stream ends once it has written the snapshot
	got := allocated(func() {
		c.Follow(context.Background(), io.Discard, func() {}, 0, nil, nil)
	})
	t.Logf("a replay of %d records allocated %d B, %.1f B a record (ceiling %d)", records, got, float64(got)/records, perRecord)
	if got > records*perRecord {
		t.Errorf("a replay of %d records allocated %d B, over %d B a record", records, got, perRecord)
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

	// The hook's snapshot holds the items in export order.
	var ips []string
	for _, it := range items(c.Current()) {
		ips = append(ips, it.ip)
	}
	if len(ips) != 3 || ips[2] != "z.example" {
		t.Fatalf("the snapshot holds %d records, last %q", len(ips), ips[len(ips)-1])
	}

	// A hook may call back into the cache without deadlocking.
	c.OnRebuild(func(s *Snapshot) { _ = c.Current() })
	coll.Expire(t0.Add(time.Second)) // only the first record is stamped before it
	c.Rebuild()
	if got := calls[len(calls)-1]; got != 2 {
		t.Fatalf("hook after removal saw %d records, want 2", got)
	}
}
