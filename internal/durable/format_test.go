package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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

// refusedUntouched asserts recovery over dir stops on another release's
// file at every step a starting exiotd takes, leaves every file as it
// was, and returns the refusal.
func refusedUntouched(t *testing.T, dir string) error {
	t.Helper()
	before := readDir(t, dir)
	m, err := Open(testOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	_, _, snapErr := m.LatestSnapshot()
	_, replayErr := m.Replay(0, func(Record) error { return nil })
	if !refused(snapErr) && !refused(replayErr) {
		t.Fatalf("LatestSnapshot: %v, Replay: %v; want one of them to refuse another release's file", snapErr, replayErr)
	}
	// StartAppend is what removes corrupt segments: even called past a
	// refused Replay it must not take the refused one for corrupt.
	if replayErr != nil {
		if err := m.StartAppend(1); !refused(err) {
			t.Fatalf("StartAppend over a refused segment: %v, want the refusal", err)
		}
	}
	sameDir(t, dir, before)
	if snapErr != nil {
		return snapErr
	}
	return replayErr
}

// TestNewerFormatRefused: a segment or snapshot whose header is well
// formed but names a version other than this binary's was written by
// another release — above it a newer exiotd, below it (a version-1
// segment, JSON events) an older one. Either is refused the same way:
// recovery fails, naming which, and the directory keeps every byte.
// Only a version-0 header, like bad magic, is corruption and repaired.
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
	for _, row := range []struct {
		name    string
		version uint32
		want    error
	}{
		{"segment", segVersion + 1, ErrNewerFormat},
		{"older segment", segVersion - 1, ErrOlderFormat},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir := healthy(t)
			segs, err := listSegments(dir)
			if err != nil || len(segs) < 3 {
				t.Fatalf("want three segments or more, got %v (%v)", segs, err)
			}
			// Not the first: the ones before it replay, and must survive too.
			setVersion(t, filepath.Join(dir, segs[len(segs)-2]), row.version)
			if err := refusedUntouched(t, dir); !errors.Is(err, row.want) {
				t.Errorf("refused with %v, want %v", err, row.want)
			}
			info, err := Inspect(dir)
			if err != nil {
				t.Fatal(err)
			}
			if problems := info.Problems(); len(problems) != 1 || !info.Segments[len(segs)-2].Refused {
				t.Errorf("Inspect reports %v (segments %+v), want the one refused segment", problems, info.Segments)
			}
			if err := ScanRecords(dir, func(Record) error { return nil }); !errors.Is(err, row.want) {
				t.Errorf("ScanRecords = %v, want the refusal", err)
			}
		})
	}
	t.Run("snapshot", func(t *testing.T) {
		dir := healthy(t)
		// The newest: the parent fell back to the one through seq 20.
		setVersion(t, filepath.Join(dir, snapshotName(40)), snapVersion+1)
		if err := refusedUntouched(t, dir); !errors.Is(err, ErrNewerFormat) {
			t.Errorf("refused with %v, want %v", err, ErrNewerFormat)
		}
	})
	t.Run("corruption is still repaired", func(t *testing.T) {
		dir := healthy(t)
		segs, _ := listSegments(dir)
		setVersion(t, filepath.Join(dir, segs[len(segs)-1]), 0)
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

// setVersion rewrites the u32 version a segment or snapshot header
// keeps after its eight-byte magic.
func setVersion(t testing.TB, path string, version uint32) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[8:], version)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRefusalsQuotedInOperations: every refusal a starting exiotd can
// print is quoted word for word in docs/OPERATIONS.md, so an operator who
// searches for the line finds what to do about it.
func TestRefusalsQuotedInOperations(t *testing.T) {
	raw, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	quoted := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		quoted[strings.TrimSpace(line)] = true
	}
	for _, row := range []struct {
		name    string
		snap    bool
		version uint32
	}{
		{"newer segment", false, segVersion + 1},
		{"older segment", false, segVersion - 1},
		{"newer snapshot", true, snapVersion + 1},
	} {
		dir := t.TempDir()
		m, err := Open(testOptions(dir))
		if err != nil {
			t.Fatal(err)
		}
		// The sequence numbers the guide's directory layout shows.
		if err := m.StartAppend(0x4d3); err != nil {
			t.Fatal(err)
		}
		appendEvents(t, m, 1)
		if err := m.WriteSnapshot(SnapshotMeta{LastSeq: 0x4d2, TakenAt: testEpoch}, []byte("state")); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, segmentName(0x4d3))
		if row.snap {
			path = filepath.Join(dir, snapshotName(0x4d2))
		}
		setVersion(t, path, row.version)
		line := refusedUntouched(t, dir).Error()
		if !quoted[line] {
			t.Errorf("%s: docs/OPERATIONS.md does not quote the refusal on a line of its own:\n%s", row.name, line)
		}
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
