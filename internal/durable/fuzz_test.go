package durable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// appliedRecord is what a replay pass saw of one record, payload by
// checksum (the payload itself is gone when the callback returns).
type appliedRecord struct {
	seq     uint64
	kind    uint8
	at      int64
	payload uint32
}

// replayDir opens dir and replays it from the start, as recovery without
// a snapshot does.
func replayDir(dir string) (*Manager, []appliedRecord, ReplayStats, error) {
	m, err := Open(testOptions(dir))
	if err != nil {
		return nil, nil, ReplayStats{}, err
	}
	var applied []appliedRecord
	stats, err := m.Replay(0, func(rec Record) error {
		applied = append(applied, appliedRecord{rec.Seq, rec.Kind, rec.AvailableAt.UnixNano(),
			crc32.Checksum(rec.Payload, castagnoli)})
		return nil
	})
	return m, applied, stats, err
}

// FuzzScanSegment feeds the segment reader and the torn-tail repair a
// file they did not write. Whatever its bytes: nothing panics; a pass
// allocates within a constant multiple of the file; the valid prefix
// ends inside the file, on a record boundary; and a directory holding
// only that file recovers — replay, position for appending (which
// truncates and removes), close — to a log whose next replay applies the
// same records and finds nothing left to truncate. A file from another
// release, older or newer, is refused instead, and kept.
func FuzzScanSegment(f *testing.F) {
	dir := f.TempDir()
	m, err := Open(testOptions(dir))
	if err != nil {
		f.Fatal(err)
	}
	if err := m.StartAppend(1); err != nil {
		f.Fatal(err)
	}
	appendEvents(f, m, 12)
	v2, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		f.Fatal(err)
	}
	// The same log with an older release's retrain marker after it.
	if _, err := m.append(recMarker, nil, legacyMarker); err != nil {
		f.Fatal(err)
	}
	if err := m.Close(); err != nil {
		f.Fatal(err)
	}
	withMarker, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		f.Fatal(err)
	}
	mutated := func(edit func(raw []byte)) []byte {
		raw := bytes.Clone(v2)
		edit(raw)
		return raw
	}
	f.Add(v2)
	f.Add(withMarker)
	f.Add(v2[:len(v2)-5])                                             // torn tail
	f.Add(mutated(func(raw []byte) { raw[segHeaderSize+4] ^= 0x40 })) // first record's CRC
	f.Add(mutated(func(raw []byte) { binary.LittleEndian.PutUint32(raw[segHeaderSize:], maxRecordSize+1) }))
	f.Add(mutated(func(raw []byte) { binary.LittleEndian.PutUint32(raw[8:], segVersion+1) })) // newer
	f.Add(mutated(func(raw []byte) { binary.LittleEndian.PutUint32(raw[8:], segVersion-1) })) // older

	f.Fuzz(func(t *testing.T, raw []byte) {
		// Under the name the manager gives a segment with this header.
		name := segmentName(1)
		if len(raw) >= segHeaderSize {
			name = segmentName(binary.LittleEndian.Uint64(raw[16:]))
		}
		dir := t.TempDir()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sc, err := scanSegment(path, func(Record) error { return nil })
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("scanSegment: %v", err)
		}
		// The payload buffer doubles up to under twice the largest record;
		// the rest is the read buffer and the open file.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(raw)+2*scanBufSize); got > limit {
			t.Errorf("a pass over %d bytes allocated %d (limit %d)", len(raw), got, limit)
		}
		if sc.headerErr == nil {
			if sc.validLen > int64(len(raw)) {
				t.Fatalf("valid prefix of %d bytes in a file of %d", sc.validLen, len(raw))
			}
			off, records := int64(segHeaderSize), 0
			for off < sc.validLen {
				off += recHeaderSize + int64(binary.LittleEndian.Uint32(raw[off:]))
				records++
			}
			if off != sc.validLen || records != sc.records {
				t.Fatalf("valid prefix ends at %d after %d records; walking the frames gives %d after %d",
					sc.validLen, sc.records, off, records)
			}
		}

		m, first, _, err := replayDir(dir)
		if m == nil {
			t.Fatal(err)
		}
		defer m.Close()
		if refused(err) {
			if v := binary.LittleEndian.Uint32(raw[8:]); v == 0 || v == segVersion {
				t.Errorf("a version-%d segment refused: %v", v, err)
			}
			if err := m.StartAppend(1); !refused(err) {
				t.Errorf("StartAppend over a refused segment: %v", err)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, raw) {
				t.Errorf("a refused segment was modified (%v)", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("Replay: %v", err)
		}
		if len(first) > sc.records {
			t.Fatalf("replay applied %d records, the scan validated %d", len(first), sc.records)
		}
		if err := m.StartAppend(1); err != nil {
			t.Fatalf("StartAppend: %v", err)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		m2, second, stats, err := replayDir(dir)
		if m2 == nil || err != nil {
			t.Fatalf("second replay: %v", err)
		}
		defer m2.Close()
		if stats.Truncated {
			t.Errorf("a repaired log still has a tail to truncate: %+v", stats)
		}
		if len(second) != len(first) {
			t.Fatalf("second replay applied %d records, the first %d", len(second), len(first))
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("record %d: first replay %+v, second %+v", i, first[i], second[i])
			}
		}
	})
}
