package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// rawSegment renders a segment file by hand, event records only, the
// way a binary that wrote format `version` framed them: the one way to
// make a version-1 segment, or one from the future, now that the manager
// writes version 2 alone.
func rawSegment(version uint32, startSeq uint64, payloads ...[]byte) []byte {
	out := encodeSegmentHeader(startSeq)
	binary.LittleEndian.PutUint32(out[8:], version)
	for i, p := range payloads {
		rec := []byte{byte(RecordEvent)}
		rec = binary.LittleEndian.AppendUint64(rec, startSeq+uint64(i))
		rec = binary.LittleEndian.AppendUint64(rec, uint64(testEpoch.UnixNano()))
		rec = append(rec, 1) // wire kind
		rec = append(rec, p...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(rec)))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(rec, castagnoli))
		out = append(out, rec...)
	}
	return out
}

// readDir returns every file of dir by name.
func readDir(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = raw
	}
	return files
}

// sameDir fails unless dir holds exactly the files of before, byte for
// byte.
func sameDir(t testing.TB, dir string, before map[string][]byte) {
	t.Helper()
	after := readDir(t, dir)
	for name, raw := range before {
		if got, ok := after[name]; !ok {
			t.Errorf("%s was removed", name)
		} else if !bytes.Equal(got, raw) {
			t.Errorf("%s was rewritten (%d bytes, was %d)", name, len(got), len(raw))
		}
	}
	for name := range after {
		if _, ok := before[name]; !ok {
			t.Errorf("%s was created", name)
		}
	}
}

// refusedUntouched asserts recovery over dir stops on a newer format at
// every step a starting exiotd takes, and leaves every file as it was.
func refusedUntouched(t *testing.T, dir string) {
	t.Helper()
	before := readDir(t, dir)
	m, err := Open(testOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	_, _, snapErr := m.LatestSnapshot()
	_, replayErr := m.Replay(0, func(Record) error { return nil })
	if !errors.Is(snapErr, errNewerFormat) && !errors.Is(replayErr, errNewerFormat) {
		t.Fatalf("LatestSnapshot: %v, Replay: %v; want one of them to refuse a newer format", snapErr, replayErr)
	}
	// StartAppend is what removes corrupt segments: even called past a
	// refused Replay it must not take the newer one for corrupt.
	if replayErr != nil {
		if err := m.StartAppend(1); !errors.Is(err, errNewerFormat) {
			t.Fatalf("StartAppend over a newer segment: %v, want the refusal", err)
		}
	}
	sameDir(t, dir, before)
}

// TestNewerFormatRefused: a segment or snapshot whose header is well
// formed but names a version above this binary's was written by a newer
// exiotd. The parent treated either as corrupt — removed the segment and
// all after it, skipped the snapshot for an older one. Now recovery
// fails and the directory keeps every byte.
func TestNewerFormatRefused(t *testing.T) {
	healthy := func(t *testing.T) string {
		dir := t.TempDir()
		opts := testOptions(dir)
		opts.SegmentBytes = 256
		m, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.StartAppend(1); err != nil {
			t.Fatal(err)
		}
		appendEvents(t, m, 20)
		if err := m.WriteSnapshot(SnapshotMeta{LastSeq: 20, EventCount: 20, TakenAt: testEpoch}, []byte("state-20")); err != nil {
			t.Fatal(err)
		}
		appendEvents(t, m, 20)
		if err := m.WriteSnapshot(SnapshotMeta{LastSeq: 40, EventCount: 40, TakenAt: testEpoch}, []byte("state-40")); err != nil {
			t.Fatal(err)
		}
		appendEvents(t, m, 10)
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	bump := func(t *testing.T, path string, version uint32) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(raw[8:], version)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("segment", func(t *testing.T) {
		dir := healthy(t)
		segs, err := listSegments(dir)
		if err != nil || len(segs) < 3 {
			t.Fatalf("want three segments or more, got %v (%v)", segs, err)
		}
		// Not the first: the ones before it replay, and must survive too.
		bump(t, filepath.Join(dir, segs[len(segs)-2]), segVersion+1)
		refusedUntouched(t, dir)
		if problems, err := Verify(dir); err != nil || len(problems) != 1 {
			t.Errorf("Verify = (%v, %v), want the one newer segment reported", problems, err)
		}
	})
	t.Run("snapshot", func(t *testing.T) {
		dir := healthy(t)
		// The newest: the parent fell back to the one through seq 20.
		bump(t, filepath.Join(dir, snapshotName(40)), snapVersion+1)
		refusedUntouched(t, dir)
	})
	t.Run("corruption is still repaired", func(t *testing.T) {
		dir := healthy(t)
		segs, _ := listSegments(dir)
		bump(t, filepath.Join(dir, segs[len(segs)-1]), 0)
		recs, stats, m := replayAll(t, dir, 40)
		if !stats.Truncated || len(recs) == 0 {
			t.Fatalf("replayed %d records, stats %+v: want the prefix before the version-0 segment", len(recs), stats)
		}
		if err := m.StartAppend(41); err != nil {
			t.Fatal(err)
		}
		m.Close()
		after, _ := listSegments(dir)
		if len(after) != len(segs)-1 || after[len(after)-1] != segs[len(segs)-2] {
			t.Errorf("segments %v → %v: want the unreadable last one dropped", segs, after)
		}
		if _, stats, _ := replayAll(t, dir, 40); stats.Truncated {
			t.Errorf("after the repair: %+v, want a clean log", stats)
		}
	})
}

// TestVersion1SegmentReadNeverAppended: a segment from before the WAL
// went binary replays, flagged with the JSON codec, and stays as it is —
// new records open a version-2 segment even where the old tail had room.
func TestVersion1SegmentReadNeverAppended(t *testing.T) {
	dir := t.TempDir()
	old := rawSegment(segVersionV1, 1, []byte(`{"a":1}`), []byte(`{"a":2}`), []byte(`{"a":3}`))
	oldPath := filepath.Join(dir, segmentName(1))
	if err := os.WriteFile(oldPath, old, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, stats, m := replayAll(t, dir, 0)
	if len(recs) != 3 || stats.Truncated || stats.LastSeq != 3 {
		t.Fatalf("replayed %d records, stats %+v: want the version-1 segment's three", len(recs), stats)
	}
	for _, rec := range recs {
		if rec.Version != 0 {
			t.Errorf("seq %d of a version-1 segment carries codec %d, want 0 (JSON)", rec.Seq, rec.Version)
		}
	}
	if err := m.StartAppend(1); err != nil {
		t.Fatal(err)
	}
	if seq, err := m.AppendEvent(1, testEpoch, []byte("binary")); err != nil || seq != 4 {
		t.Fatalf("AppendEvent = (%d, %v), want seq 4", seq, err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	if got, err := os.ReadFile(oldPath); err != nil || !bytes.Equal(got, old) {
		t.Errorf("the version-1 segment changed: %d bytes, was %d (%v)", len(got), len(old), err)
	}
	info, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Segments) != 2 || info.Segments[0].Version != segVersionV1 ||
		info.Segments[1].Version != segVersion || info.Segments[1].StartSeq != 4 {
		t.Fatalf("segments after the append: %+v, want the old one and a version-%d one from seq 4", info.Segments, segVersion)
	}
	recs, stats, _ = replayAll(t, dir, 0)
	if len(recs) != 4 || stats.Truncated || recs[3].Version != 2 || string(recs[3].Payload) != "binary" {
		t.Fatalf("mixed log replays %d records, stats %+v, last %+v", len(recs), stats, recs[len(recs)-1])
	}

	// A torn version-1 tail is cut at its last whole record, and still
	// not appended to.
	dir = t.TempDir()
	oldPath = filepath.Join(dir, segmentName(1))
	if err := os.WriteFile(oldPath, old[:len(old)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, stats, m = replayAll(t, dir, 0)
	if len(recs) != 2 || !stats.Truncated {
		t.Fatalf("torn version-1 tail replays %d records, stats %+v", len(recs), stats)
	}
	if err := m.StartAppend(1); err != nil {
		t.Fatal(err)
	}
	if seq, err := m.AppendEvent(1, testEpoch, []byte("binary")); err != nil || seq != 3 {
		t.Fatalf("AppendEvent = (%d, %v), want seq 3", seq, err)
	}
	m.Close()
	if got, _ := os.ReadFile(oldPath); !bytes.Equal(got, rawSegment(segVersionV1, 1, []byte(`{"a":1}`), []byte(`{"a":2}`))) {
		t.Errorf("the torn version-1 segment is %d bytes after repair, want its two whole records", len(got))
	}
	if recs, stats, _ = replayAll(t, dir, 0); len(recs) != 3 || stats.Truncated {
		t.Fatalf("after repair: %d records, stats %+v", len(recs), stats)
	}
}

// TestAppendEventSteadyStateZeroAlloc pins the append path: once the
// manager's frame buffer has grown to the record size, framing,
// checksumming and writing a record do not touch the heap.
func TestAppendEventSteadyStateZeroAlloc(t *testing.T) {
	m, err := Open(Options{Dir: t.TempDir(), Sync: SyncOff, SegmentBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.StartAppend(1); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 300)
	if _, err := m.AppendEvent(1, testEpoch, payload); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := m.AppendEvent(1, testEpoch, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendEvent allocates %.1f times per record in steady state, want 0", allocs)
	}
}

// TestScanSegmentAllocsIndependentOfRecords pins the replay reader: one
// pass costs the open file, the read buffer and a payload buffer that
// grows to the largest record — the same for forty records as for four
// thousand.
func TestScanSegmentAllocsIndependentOfRecords(t *testing.T) {
	pass := func(records int) float64 {
		dir := t.TempDir()
		m, err := Open(Options{Dir: dir, Sync: SyncOff, SegmentBytes: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.StartAppend(1); err != nil {
			t.Fatal(err)
		}
		appendEvents(t, m, records)
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, segmentName(1))
		return testing.AllocsPerRun(5, func() {
			n := 0
			sc, err := scanSegment(path, func(Record) error { n++; return nil })
			if err != nil || n != records || sc.torn {
				t.Fatalf("scanned %d of %d records (%v, torn %v)", n, records, err, sc.torn)
			}
		})
	}
	few, many := pass(40), pass(4000)
	t.Logf("allocs per pass: %.0f over 40 records, %.0f over 4000", few, many)
	if many > few || many > 12 {
		t.Errorf("a pass over 4000 records allocates %.0f times, over 40 records %.0f: want the same small constant", many, few)
	}
}
