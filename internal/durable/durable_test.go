package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var testEpoch = time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)

func testOptions(dir string) Options {
	return Options{Dir: dir, Sync: SyncOff}
}

// appendEvents writes n deterministic event records starting at the
// manager's current sequence and returns their payloads.
func appendEvents(t testing.TB, m *Manager, n int) [][]byte {
	t.Helper()
	payloads := make([][]byte, n)
	for i := 0; i < n; i++ {
		p := []byte(fmt.Sprintf("event-payload-%04d", i))
		if _, err := m.AppendEvent(uint8(i%3+1), testEpoch.Add(time.Duration(i)*time.Minute), p); err != nil {
			t.Fatalf("AppendEvent %d: %v", i, err)
		}
		payloads[i] = p
	}
	return payloads
}

// replayAll collects every replayed record from a fresh manager.
func replayAll(t testing.TB, dir string, fromSeq uint64) ([]Record, ReplayStats, *Manager) {
	t.Helper()
	m, err := Open(testOptions(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var recs []Record
	stats, err := m.Replay(fromSeq, func(rec Record) error {
		cp := rec
		cp.Payload = append([]byte(nil), rec.Payload...)
		recs = append(recs, cp)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs, stats, m
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(testOptions(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := m.StartAppend(1); err != nil {
		t.Fatalf("StartAppend: %v", err)
	}
	payloads := appendEvents(t, m, 10)
	if _, err := m.AppendRetrain([]byte(`{"auc":0.91}`)); err != nil {
		t.Fatalf("AppendRetrain: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	recs, stats, _ := replayAll(t, dir, 0)
	if len(recs) != 11 {
		t.Fatalf("replayed %d records, want 11", len(recs))
	}
	if stats.Events != 10 || stats.Retrains != 1 || stats.Truncated {
		t.Fatalf("stats = %+v, want 10 events, 1 retrain, not truncated", stats)
	}
	for i, rec := range recs[:10] {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d seq = %d, want %d", i, rec.Seq, i+1)
		}
		if rec.Type != RecordEvent {
			t.Fatalf("record %d type = %v, want event", i, rec.Type)
		}
		if !bytes.Equal(rec.Payload, payloads[i]) {
			t.Fatalf("record %d payload = %q, want %q", i, rec.Payload, payloads[i])
		}
		if want := testEpoch.Add(time.Duration(i) * time.Minute); !rec.AvailableAt.Equal(want) {
			t.Fatalf("record %d availableAt = %v, want %v", i, rec.AvailableAt, want)
		}
		if rec.Kind != uint8(i%3+1) {
			t.Fatalf("record %d kind = %d, want %d", i, rec.Kind, i%3+1)
		}
	}
	if recs[10].Type != RecordRetrain || recs[10].Seq != 11 {
		t.Fatalf("last record = %+v, want retrain seq 11", recs[10])
	}
}

func TestAppendResumesAfterReopen(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(testOptions(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := m.StartAppend(1); err != nil {
		t.Fatalf("StartAppend: %v", err)
	}
	appendEvents(t, m, 5)
	m.Close()

	_, stats, m2 := replayAll(t, dir, 0)
	if stats.LastSeq != 5 {
		t.Fatalf("LastSeq = %d, want 5", stats.LastSeq)
	}
	if err := m2.StartAppend(stats.LastSeq + 1); err != nil {
		t.Fatalf("StartAppend: %v", err)
	}
	if got := m2.NextSeq(); got != 6 {
		t.Fatalf("NextSeq = %d, want 6", got)
	}
	appendEvents(t, m2, 3)
	m2.Close()

	recs, _, _ := replayAll(t, dir, 0)
	if len(recs) != 8 {
		t.Fatalf("replayed %d records after resume, want 8", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d seq = %d, want %d", i, rec.Seq, i+1)
		}
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(dir)
	opts.SegmentBytes = 256 // force frequent rotation
	m, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := m.StartAppend(1); err != nil {
		t.Fatalf("StartAppend: %v", err)
	}
	appendEvents(t, m, 50)
	m.Close()

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatalf("listSegments: %v", err)
	}
	if len(segs) < 3 {
		t.Fatalf("got %d segments, want rotation to produce at least 3", len(segs))
	}
	recs, stats, _ := replayAll(t, dir, 0)
	if len(recs) != 50 || stats.Truncated {
		t.Fatalf("replayed %d records (truncated=%v), want 50 clean", len(recs), stats.Truncated)
	}
}

func TestSnapshotRoundTripAndTailReplay(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(testOptions(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := m.StartAppend(1); err != nil {
		t.Fatalf("StartAppend: %v", err)
	}
	appendEvents(t, m, 6)
	state := []byte(`{"feed":"state-after-6"}`)
	meta := SnapshotMeta{LastSeq: 6, EventCount: 6, TakenAt: testEpoch.Add(6 * time.Hour)}
	if err := m.WriteSnapshot(meta, state); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	appendEvents(t, m, 4)
	m.Close()

	m2, err := Open(testOptions(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	gotMeta, payload, err := m2.LatestSnapshot()
	if err != nil {
		t.Fatalf("LatestSnapshot: %v", err)
	}
	if gotMeta.LastSeq != 6 || gotMeta.EventCount != 6 || !gotMeta.TakenAt.Equal(meta.TakenAt) {
		t.Fatalf("snapshot meta = %+v, want %+v", gotMeta, meta)
	}
	if !bytes.Equal(payload, state) {
		t.Fatalf("snapshot payload = %q, want %q", payload, state)
	}
	var tail []Record
	stats, err := m2.Replay(gotMeta.LastSeq, func(rec Record) error {
		tail = append(tail, rec)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(tail) != 4 || stats.Records != 4 {
		t.Fatalf("replayed %d tail records, want 4", len(tail))
	}
	if tail[0].Seq != 7 {
		t.Fatalf("first tail seq = %d, want 7", tail[0].Seq)
	}
}

func TestCorruptNewestSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(testOptions(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := m.StartAppend(1); err != nil {
		t.Fatalf("StartAppend: %v", err)
	}
	appendEvents(t, m, 4)
	if err := m.WriteSnapshot(SnapshotMeta{LastSeq: 2, EventCount: 2, TakenAt: testEpoch}, []byte("old-state")); err != nil {
		t.Fatalf("WriteSnapshot old: %v", err)
	}
	if err := m.WriteSnapshot(SnapshotMeta{LastSeq: 4, EventCount: 4, TakenAt: testEpoch.Add(time.Hour)}, []byte("new-state")); err != nil {
		t.Fatalf("WriteSnapshot new: %v", err)
	}
	m.Close()

	// Flip a payload byte in the newest snapshot: CRC must reject it and
	// recovery must fall back to the older one.
	newest := filepath.Join(dir, snapshotName(4))
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(newest, raw, 0o644); err != nil {
		t.Fatalf("corrupt snapshot: %v", err)
	}

	m2, err := Open(testOptions(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	meta, payload, err := m2.LatestSnapshot()
	if err != nil {
		t.Fatalf("LatestSnapshot: %v", err)
	}
	if meta.LastSeq != 2 || string(payload) != "old-state" {
		t.Fatalf("fell back to meta=%+v payload=%q, want the LastSeq=2 snapshot", meta, payload)
	}

	if problems, err := Verify(dir); err != nil || len(problems) == 0 {
		t.Fatalf("Verify = (%v, %v), want the corrupt snapshot reported", problems, err)
	}
}

func TestCompactionDropsLapsedState(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(dir)
	opts.SegmentBytes = 256
	opts.Retain = 24 * time.Hour
	m, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := m.StartAppend(1); err != nil {
		t.Fatalf("StartAppend: %v", err)
	}
	appendEvents(t, m, 30)
	if err := m.WriteSnapshot(SnapshotMeta{LastSeq: 30, EventCount: 30, TakenAt: testEpoch}, []byte("day-0")); err != nil {
		t.Fatalf("WriteSnapshot day 0: %v", err)
	}
	appendEvents(t, m, 30)
	// Two simulated days later: the day-0 snapshot is past the 24h
	// retention window and every segment it covered becomes garbage.
	if err := m.WriteSnapshot(SnapshotMeta{LastSeq: 60, EventCount: 60, TakenAt: testEpoch.Add(48 * time.Hour)}, []byte("day-2")); err != nil {
		t.Fatalf("WriteSnapshot day 2: %v", err)
	}
	m.Close()

	snaps, err := listSnapshots(dir)
	if err != nil {
		t.Fatalf("listSnapshots: %v", err)
	}
	if len(snaps) != 1 || snaps[0] != snapshotName(60) {
		t.Fatalf("snapshots after compaction = %v, want only %s", snaps, snapshotName(60))
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatalf("listSegments: %v", err)
	}
	for _, name := range segs {
		start, _ := parseSegmentName(name)
		sc, err := scanSegment(filepath.Join(dir, name), nil)
		if err != nil {
			t.Fatalf("scan %s: %v", name, err)
		}
		if sc.records > 0 && sc.lastSeq <= 60 && start > 1 {
			// Fully-covered interior segments must be gone; only the
			// segment containing seq 60's successor position may stay.
		}
	}
	// Recovery must still work from the surviving snapshot + tail.
	m2, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	meta, payload, err := m2.LatestSnapshot()
	if err != nil || meta.LastSeq != 60 || string(payload) != "day-2" {
		t.Fatalf("LatestSnapshot = (%+v, %q, %v), want the day-2 snapshot", meta, payload, err)
	}
	stats, err := m2.Replay(meta.LastSeq, nil)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if stats.Records != 0 || stats.Truncated {
		t.Fatalf("post-compaction replay stats = %+v, want empty clean tail", stats)
	}
	if err := m2.StartAppend(meta.LastSeq + 1); err != nil {
		t.Fatalf("StartAppend after compaction: %v", err)
	}
	if got := m2.NextSeq(); got != 61 {
		t.Fatalf("NextSeq after compaction = %d, want 61", got)
	}
	m2.Close()
}

func TestUncoveredGapEndsReplayablePrefix(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(dir)
	opts.SegmentBytes = 256
	m, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := m.StartAppend(1); err != nil {
		t.Fatalf("StartAppend: %v", err)
	}
	appendEvents(t, m, 40)
	m.Close()

	segs, err := listSegments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("need at least 3 segments, got %v (%v)", segs, err)
	}
	// Delete a middle segment: records after the hole are unreachable
	// without a snapshot covering it.
	mid := segs[1]
	if err := os.Remove(filepath.Join(dir, mid)); err != nil {
		t.Fatalf("remove middle segment: %v", err)
	}
	firstScan, err := scanSegment(filepath.Join(dir, segs[0]), nil)
	if err != nil {
		t.Fatalf("scan first segment: %v", err)
	}

	recs, stats, m2 := replayAll(t, dir, 0)
	if !stats.Truncated {
		t.Fatalf("stats = %+v, want Truncated after a sequence gap", stats)
	}
	if len(recs) != firstScan.records || stats.LastSeq != firstScan.lastSeq {
		t.Fatalf("replayed %d records up to seq %d, want only the first segment's %d (through %d)",
			len(recs), stats.LastSeq, firstScan.records, firstScan.lastSeq)
	}
	// StartAppend must discard the unreachable segments and resume right
	// after the surviving prefix.
	if err := m2.StartAppend(stats.LastSeq + 1); err != nil {
		t.Fatalf("StartAppend: %v", err)
	}
	if got := m2.NextSeq(); got != firstScan.lastSeq+1 {
		t.Fatalf("NextSeq = %d, want %d", got, firstScan.lastSeq+1)
	}
	m2.Close()
	if recs2, stats2, _ := replayAll(t, dir, 0); stats2.Truncated || len(recs2) != firstScan.records {
		t.Fatalf("after StartAppend cleanup: %d records truncated=%v, want clean %d",
			len(recs2), stats2.Truncated, firstScan.records)
	}
}

// TestTornTailFuzz is the corruption fuzz required by the issue:
// truncate the log at every byte offset inside the last record and
// separately flip every byte of it, asserting replay always recovers
// exactly the valid prefix and never panics.
func TestTornTailFuzz(t *testing.T) {
	const records = 8
	build := func(t *testing.T) (string, []int64, int64) {
		dir := t.TempDir()
		m, err := Open(testOptions(dir))
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if err := m.StartAppend(1); err != nil {
			t.Fatalf("StartAppend: %v", err)
		}
		appendEvents(t, m, records)
		m.Close()
		segs, err := listSegments(dir)
		if err != nil || len(segs) != 1 {
			t.Fatalf("want a single segment, got %v (%v)", segs, err)
		}
		offsets, validLen, err := RecordOffsets(filepath.Join(dir, segs[0]))
		if err != nil {
			t.Fatalf("RecordOffsets: %v", err)
		}
		if len(offsets) != records {
			t.Fatalf("got %d record offsets, want %d", len(offsets), records)
		}
		return filepath.Join(dir, segs[0]), offsets, validLen
	}

	check := func(t *testing.T, dir string, wantRecords int, wantTruncated bool) {
		recs, stats, m := replayAll(t, dir, 0)
		if len(recs) != wantRecords {
			t.Fatalf("replayed %d records, want %d (stats %+v)", len(recs), wantRecords, stats)
		}
		if stats.Truncated != wantTruncated {
			t.Fatalf("Truncated = %v, want %v", stats.Truncated, wantTruncated)
		}
		for i, rec := range recs {
			if rec.Seq != uint64(i+1) {
				t.Fatalf("record %d seq = %d, want %d", i, rec.Seq, i+1)
			}
		}
		// The appender must also survive the damage: truncate the torn
		// tail and continue the sequence.
		if err := m.StartAppend(stats.LastSeq + 1); err != nil {
			t.Fatalf("StartAppend on damaged log: %v", err)
		}
		if got := m.NextSeq(); got != uint64(wantRecords)+1 {
			t.Fatalf("NextSeq = %d, want %d", got, wantRecords+1)
		}
		if _, err := m.AppendEvent(1, testEpoch, []byte("post-damage")); err != nil {
			t.Fatalf("AppendEvent after damage: %v", err)
		}
		m.Close()
		if recs2, stats2, _ := replayAll(t, dir, 0); stats2.Truncated || len(recs2) != wantRecords+1 {
			t.Fatalf("post-repair replay: %d records truncated=%v, want clean %d",
				len(recs2), stats2.Truncated, wantRecords+1)
		}
	}

	t.Run("truncate", func(t *testing.T) {
		path, offsets, validLen := build(t)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read segment: %v", err)
		}
		lastStart := offsets[records-1]
		for cut := lastStart; cut < validLen; cut++ {
			dir := t.TempDir()
			dst := filepath.Join(dir, filepath.Base(path))
			if err := os.WriteFile(dst, raw[:cut], 0o644); err != nil {
				t.Fatalf("write truncated copy: %v", err)
			}
			// Cutting exactly at the record boundary leaves a clean
			// (shorter) log; any byte into the record is a torn tail.
			check(t, dir, records-1, cut > lastStart)
		}
	})

	t.Run("bitflip", func(t *testing.T) {
		path, offsets, validLen := build(t)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read segment: %v", err)
		}
		lastStart := offsets[records-1]
		for pos := lastStart; pos < validLen; pos++ {
			dir := t.TempDir()
			dst := filepath.Join(dir, filepath.Base(path))
			mut := append([]byte(nil), raw...)
			mut[pos] ^= 1 << (pos % 8)
			if err := os.WriteFile(dst, mut, 0o644); err != nil {
				t.Fatalf("write corrupted copy: %v", err)
			}
			// A flipped length field may make the last frame claim fewer
			// bytes than written; whatever the failure mode, replay must
			// recover at most the prefix and never the corrupted record.
			check(t, dir, records-1, true)
		}
	})

	t.Run("header", func(t *testing.T) {
		path, _, _ := build(t)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read segment: %v", err)
		}
		for pos := int64(0); pos < segHeaderSize; pos++ {
			dir := t.TempDir()
			dst := filepath.Join(dir, filepath.Base(path))
			mut := append([]byte(nil), raw...)
			mut[pos] ^= 0xFF
			if err := os.WriteFile(dst, mut, 0o644); err != nil {
				t.Fatalf("write corrupted copy: %v", err)
			}
			if pos >= 8 && pos < 12 {
				// Any byte of the version flipped reads as a version above
				// this binary's: a newer exiotd's segment, refused where
				// it lies, not repaired away.
				refusedUntouched(t, dir)
				continue
			}
			recs, stats, m := replayAll(t, dir, 0)
			if len(recs) != 0 || !stats.Truncated {
				t.Fatalf("header flip at %d: replayed %d records truncated=%v, want 0/true",
					pos, len(recs), stats.Truncated)
			}
			if err := m.StartAppend(1); err != nil {
				t.Fatalf("StartAppend after header damage: %v", err)
			}
			m.Close()
		}
	})
}

func TestInspectReportsDirectory(t *testing.T) {
	dir := t.TempDir()
	// A single large segment: the snapshot below must not compact any of
	// the records Inspect is expected to count.
	opts := testOptions(dir)
	m, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := m.StartAppend(1); err != nil {
		t.Fatalf("StartAppend: %v", err)
	}
	appendEvents(t, m, 20)
	if _, err := m.AppendRetrain([]byte(`{"auc":0.9}`)); err != nil {
		t.Fatalf("AppendRetrain: %v", err)
	}
	if err := m.WriteSnapshot(SnapshotMeta{LastSeq: 21, EventCount: 20, TakenAt: testEpoch}, []byte("state")); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	m.Close()

	info, err := Inspect(dir)
	if err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	if len(info.Snapshots) != 1 || !info.Snapshots[0].Valid || info.Snapshots[0].Meta.LastSeq != 21 {
		t.Fatalf("snapshots = %+v, want one valid snapshot at seq 21", info.Snapshots)
	}
	var events, retrains, records int
	for _, seg := range info.Segments {
		events += seg.Events
		retrains += seg.Retrains
		records += seg.Records
		if seg.Error != "" || seg.TornBytes != 0 {
			t.Fatalf("segment %+v reported damage on a healthy log", seg)
		}
	}
	if events != 20 || retrains != 1 || records != 21 {
		t.Fatalf("inspect totals events=%d retrains=%d records=%d, want 20/1/21", events, retrains, records)
	}
	if problems, err := Verify(dir); err != nil || len(problems) != 0 {
		t.Fatalf("Verify = (%v, %v), want clean", problems, err)
	}
}

func TestEmptyDirectoryRecovery(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(testOptions(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	meta, payload, err := m.LatestSnapshot()
	if err != nil || payload != nil || meta.LastSeq != 0 {
		t.Fatalf("LatestSnapshot on empty dir = (%+v, %v, %v), want zero values", meta, payload, err)
	}
	stats, err := m.Replay(0, func(Record) error {
		t.Fatal("apply invoked on empty dir")
		return nil
	})
	if err != nil || stats.Records != 0 || stats.Truncated {
		t.Fatalf("Replay on empty dir = (%+v, %v), want empty clean", stats, err)
	}
	if err := m.StartAppend(1); err != nil {
		t.Fatalf("StartAppend: %v", err)
	}
	if _, err := m.AppendEvent(1, testEpoch, []byte("first")); err != nil {
		t.Fatalf("AppendEvent: %v", err)
	}
	m.Close()
}

func BenchmarkWALAppend(b *testing.B) {
	for _, policy := range []SyncPolicy{SyncOff, SyncInterval} {
		b.Run(string(policy), func(b *testing.B) {
			dir := b.TempDir()
			opts := Options{Dir: dir, Sync: policy, SegmentBytes: 64 << 20}
			m, err := Open(opts)
			if err != nil {
				b.Fatalf("Open: %v", err)
			}
			if err := m.StartAppend(1); err != nil {
				b.Fatalf("StartAppend: %v", err)
			}
			payload := bytes.Repeat([]byte("x"), 300) // typical wire event size
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.AppendEvent(1, testEpoch, payload); err != nil {
					b.Fatalf("AppendEvent: %v", err)
				}
			}
			b.StopTimer()
			m.Close()
		})
	}
}

func BenchmarkRecoveryReplay(b *testing.B) {
	dir := b.TempDir()
	m, err := Open(Options{Dir: dir, Sync: SyncOff, SegmentBytes: 64 << 20})
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	if err := m.StartAppend(1); err != nil {
		b.Fatalf("StartAppend: %v", err)
	}
	payload := bytes.Repeat([]byte("x"), 300)
	const records = 10000
	for i := 0; i < records; i++ {
		if _, err := m.AppendEvent(1, testEpoch, payload); err != nil {
			b.Fatalf("AppendEvent: %v", err)
		}
	}
	m.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Open(Options{Dir: dir, Sync: SyncOff})
		if err != nil {
			b.Fatalf("Open: %v", err)
		}
		n := 0
		stats, err := m.Replay(0, func(Record) error { n++; return nil })
		if err != nil || n != records || stats.Truncated {
			b.Fatalf("Replay = (%+v, %v) with %d records, want %d clean", stats, err, n, records)
		}
	}
	b.StopTimer()
	b.SetBytes(int64(records * (recHeaderSize + 9 + 9 + len(payload))))
}
