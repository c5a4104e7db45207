package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Manager owns one state directory: it recovers the latest snapshot,
// replays the WAL tail, and then appends new records with the
// configured fsync policy. The expected call sequence is
//
//	m, _ := Open(opts)
//	meta, payload, _ := m.LatestSnapshot()   // restore state from payload
//	stats, _ := m.Replay(meta.LastSeq, apply)
//	m.StartAppend(meta.LastSeq + 1)          // truncates any torn tail
//	... m.AppendEvent / m.AppendRetrain / m.WriteSnapshot ...
//	m.Close()
//
// All methods are safe for concurrent use once StartAppend returns.
type Manager struct {
	opts Options

	mu       sync.Mutex
	scans    []segScan // cached directory scan (invalidated by appends)
	scanFrom uint64    // fromSeq the cached scan judged gaps against
	seg      *os.File  // active append segment
	segPath  string
	segLen   int64
	nextSeq  uint64
	frame    []byte // the record being appended; reused
	lastSync time.Time
	dirty    bool
	started  bool
	closed   bool
}

// ReplayStats summarizes one recovery replay.
type ReplayStats struct {
	Records  int    // records applied (seq > fromSeq)
	Events   int    // RecordEvent records applied
	Retrains int    // RecordRetrain records applied
	LastSeq  uint64 // last valid record seen in the log (any seq)
	// Truncated reports that a torn or corrupt tail was found; the
	// bytes after the last valid record are discarded by StartAppend.
	Truncated bool
	TornBytes int64
}

// Open prepares a state directory (created if missing). No file is
// opened for writing until StartAppend.
func Open(opts Options) (*Manager, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, errors.New("durable: empty state directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: create state dir: %w", err)
	}
	return &Manager{opts: opts}, nil
}

// Dir returns the state directory path.
func (m *Manager) Dir() string { return m.opts.Dir }

// LatestSnapshot loads the most recent valid snapshot, returning its
// meta and opaque payload, or a zero meta and nil payload when the
// directory has none. A corrupt newest snapshot falls back to the next
// older valid one — the torn file is skipped, not fatal. A snapshot from
// another release is not corruption: it is an error, and older ones are
// not tried in its place.
func (m *Manager) LatestSnapshot() (SnapshotMeta, []byte, error) {
	names, err := listSnapshots(m.opts.Dir)
	if err != nil {
		return SnapshotMeta{}, nil, fmt.Errorf("durable: list snapshots: %w", err)
	}
	for i := len(names) - 1; i >= 0; i-- {
		meta, payload, err := readSnapshot(filepath.Join(m.opts.Dir, names[i]))
		if refused(err) {
			return SnapshotMeta{}, nil, err
		}
		if err != nil {
			continue // corrupt or unreadable; try the previous one
		}
		return meta, payload, nil
	}
	return SnapshotMeta{}, nil, nil
}

// Replay walks the WAL in sequence order and invokes apply for every
// valid record with Seq > fromSeq. Validation covers every record (CRC,
// framing, sequence continuity); the walk stops at the first invalid
// record — the torn tail — and everything after it is reported as
// truncated, never applied, and never a panic. A Record's Payload is
// valid only until apply returns. A segment from another release is an
// error, whatever was applied before it. Must be called before
// StartAppend.
func (m *Manager) Replay(fromSeq uint64, apply func(Record) error) (ReplayStats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return ReplayStats{}, errors.New("durable: Replay after StartAppend")
	}
	var stats ReplayStats
	scans, err := m.scanAllLocked(fromSeq, func(rec Record) error {
		if rec.Seq <= fromSeq || apply == nil {
			return nil
		}
		if err := apply(rec); err != nil {
			return err
		}
		stats.Records++
		metReplayRecords.Inc()
		switch rec.Type {
		case RecordEvent:
			stats.Events++
		case RecordRetrain:
			stats.Retrains++
		}
		return nil
	})
	if err != nil {
		return stats, err
	}
	healthy := true
	for _, sc := range scans {
		switch {
		case !healthy || sc.headerErr != nil || sc.gap:
			// Whole segment discarded: beyond the torn point, header
			// unreadable, or unreachable across a sequence gap.
			healthy = false
			stats.Truncated = true
			stats.TornBytes += sc.size
		case sc.torn:
			if sc.records > 0 {
				stats.LastSeq = sc.lastSeq
			}
			healthy = false
			stats.Truncated = true
			stats.TornBytes += sc.size - sc.validLen
		default:
			if sc.records > 0 {
				stats.LastSeq = sc.lastSeq
			}
		}
	}
	return stats, nil
}

// scanAllLocked scans every segment in order, stopping the record
// callback at the first torn segment (later segments are scanned for
// stats but their records are beyond the torn point and not applied).
// A sequence gap between segments is tolerated only when the missing
// range is entirely at or below fromSeq — that is, wholly covered by
// the snapshot recovery starts from (the shape compaction leaves
// behind). Any other gap ends the replayable prefix like a torn record
// does. A segment from another release fails the scan: StartAppend must
// not mistake it for a corrupt one and remove it. Caller holds m.mu.
func (m *Manager) scanAllLocked(fromSeq uint64, fn func(Record) error) ([]segScan, error) {
	names, err := listSegments(m.opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("durable: list segments: %w", err)
	}
	scans := make([]segScan, 0, len(names))
	torn := false
	var prevLast uint64
	for _, name := range names {
		path := filepath.Join(m.opts.Dir, name)
		// Peek at record continuity before applying: scan without the
		// callback first would double the I/O, so check the gap from
		// the header start seq (== first record seq in a valid file).
		startSeq, _ := parseSegmentName(name)
		gap := !torn && prevLast != 0 && startSeq != prevLast+1 && startSeq-1 > fromSeq
		cb := fn
		if torn || gap {
			cb = nil // past the torn point: validate only
		}
		sc, err := scanSegment(path, cb)
		if err != nil {
			return scans, fmt.Errorf("durable: scan %s: %w", name, err)
		}
		if refused(sc.headerErr) {
			return scans, sc.headerErr
		}
		if gap {
			sc.gap = true
		}
		if sc.records > 0 && !torn && !gap {
			prevLast = sc.lastSeq
		}
		scans = append(scans, sc)
		if sc.torn || sc.gap || sc.headerErr != nil {
			torn = true
		}
	}
	m.scans = scans
	m.scanFrom = fromSeq
	return scans, nil
}

// StartAppend positions the manager for writing: the torn tail (if any)
// is physically truncated away, segments past a torn point are deleted,
// and the next record is assigned max(lastValidSeq+1, minNextSeq).
// minNextSeq covers the snapshot-beyond-WAL case: after compaction the
// log may restart above the highest surviving segment.
func (m *Manager) StartAppend(minNextSeq uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return errors.New("durable: StartAppend called twice")
	}
	if minNextSeq == 0 {
		minNextSeq = 1
	}
	scans := m.scans
	if scans == nil || m.scanFrom != minNextSeq-1 {
		var err error
		if scans, err = m.scanAllLocked(minNextSeq-1, nil); err != nil {
			return err
		}
	}

	// Walk the healthy prefix; everything at or past a torn point is
	// removed so the surviving log is exactly the replayable prefix.
	var tail *segScan // last healthy segment (append candidate)
	var lastSeq uint64
	torn := false
	for i := range scans {
		sc := &scans[i]
		if torn || sc.gap || sc.headerErr != nil {
			torn = true
			if err := os.Remove(sc.path); err != nil {
				return fmt.Errorf("durable: drop segment %s: %w", sc.name, err)
			}
			continue
		}
		if sc.torn {
			// Keep the valid prefix of the first torn segment; its
			// trailing bytes are truncated below.
			torn = true
		}
		tail = sc
		if sc.records > 0 {
			lastSeq = sc.lastSeq
		}
	}

	m.nextSeq = lastSeq + 1
	if minNextSeq > m.nextSeq {
		m.nextSeq = minNextSeq
	}

	// Reuse the tail segment when the next sequence extends it
	// contiguously (its header start seq must match for an empty one);
	// otherwise truncate its torn bytes in place and rotate to a fresh
	// segment named by the next sequence.
	reuse := tail != nil &&
		((tail.records > 0 && tail.lastSeq+1 == m.nextSeq) ||
			(tail.records == 0 && tail.startSeq == m.nextSeq))
	if reuse {
		f, err := os.OpenFile(tail.path, os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("durable: reopen segment: %w", err)
		}
		if tail.validLen < tail.size {
			if err := f.Truncate(tail.validLen); err != nil {
				f.Close()
				return fmt.Errorf("durable: truncate torn tail: %w", err)
			}
		}
		if _, err := f.Seek(tail.validLen, 0); err != nil {
			f.Close()
			return fmt.Errorf("durable: seek segment: %w", err)
		}
		m.seg, m.segPath, m.segLen = f, tail.path, tail.validLen
	} else {
		if tail != nil {
			if tail.records == 0 {
				// Crash during rotation left an empty segment that can
				// no longer host the next sequence; drop it.
				if err := os.Remove(tail.path); err != nil {
					return fmt.Errorf("durable: drop segment %s: %w", tail.name, err)
				}
			} else if tail.validLen < tail.size {
				if err := os.Truncate(tail.path, tail.validLen); err != nil {
					return fmt.Errorf("durable: truncate torn tail: %w", err)
				}
			}
		}
		if err := m.openSegmentLocked(m.nextSeq); err != nil {
			return err
		}
	}
	m.scans = nil // stale once appends begin
	m.started = true
	m.lastSync = time.Now()
	m.updateSegmentGauge()
	return nil
}

// openSegmentLocked creates a fresh segment starting at startSeq and
// makes it the append target. Caller holds m.mu.
func (m *Manager) openSegmentLocked(startSeq uint64) error {
	path := filepath.Join(m.opts.Dir, segmentName(startSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("durable: create segment: %w", err)
	}
	if _, err := f.Write(encodeSegmentHeader(startSeq)); err != nil {
		f.Close()
		return fmt.Errorf("durable: write segment header: %w", err)
	}
	if m.opts.Sync != SyncOff {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("durable: sync segment header: %w", err)
		}
		metWALFsyncs.Inc()
		if err := syncDir(m.opts.Dir); err != nil {
			f.Close()
			return fmt.Errorf("durable: sync state dir: %w", err)
		}
	}
	m.seg, m.segPath, m.segLen = f, path, segHeaderSize
	return nil
}

// AppendEvent appends one sampler event — payload in the wire's v2
// binary layout, kind its frame kind — and returns its assigned sequence
// number. The record is handed to the kernel in one write before
// AppendEvent returns; payload is not retained.
func (m *Manager) AppendEvent(kind uint8, availableAt time.Time, payload []byte) (uint64, error) {
	var head [eventHeadSize]byte
	binary.LittleEndian.PutUint64(head[:], uint64(availableAt.UnixNano()))
	head[8] = kind
	seq, err := m.append(RecordEvent, head[:], payload)
	if err == nil {
		metWALAppendEvent.Inc()
	}
	return seq, err
}

// AppendRetrain appends one retrain marker (metadata JSON).
func (m *Manager) AppendRetrain(meta []byte) (uint64, error) {
	seq, err := m.append(RecordRetrain, nil, meta)
	if err == nil {
		metWALAppendRetrain.Inc()
	}
	return seq, err
}

// append frames one record — length, CRC, type, sequence, then head and
// body — in the manager's reused buffer and writes it with one Write.
func (m *Manager) append(typ RecordType, head, body []byte) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.started || m.closed {
		return 0, errors.New("durable: append before StartAppend or after Close")
	}
	frame := append(m.frame[:0], 0, 0, 0, 0, 0, 0, 0, 0, byte(typ)) // length and CRC backpatched
	frame = binary.LittleEndian.AppendUint64(frame, m.nextSeq)
	frame = append(frame, head...)
	frame = append(frame, body...)
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(frame)-recHeaderSize))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(frame[recHeaderSize:], castagnoli))
	m.frame = frame
	if m.segLen > segHeaderSize && m.segLen+int64(len(frame)) > m.opts.SegmentBytes {
		if err := m.rotateLocked(); err != nil {
			metWALErrors.Inc()
			return 0, err
		}
	}
	if _, err := m.seg.Write(frame); err != nil {
		metWALErrors.Inc()
		return 0, fmt.Errorf("durable: append: %w", err)
	}
	seq := m.nextSeq
	m.nextSeq++
	m.segLen += int64(len(frame))
	m.dirty = true
	metWALBytes.Add(int64(len(frame)))
	if err := m.policySyncLocked(); err != nil {
		metWALErrors.Inc()
		return seq, err
	}
	return seq, nil
}

// rotateLocked finishes the active segment and opens the next one.
// Caller holds m.mu.
func (m *Manager) rotateLocked() error {
	if err := m.syncLocked(); err != nil {
		return err
	}
	if err := m.seg.Close(); err != nil {
		return fmt.Errorf("durable: close segment: %w", err)
	}
	if err := m.openSegmentLocked(m.nextSeq); err != nil {
		return err
	}
	m.updateSegmentGauge()
	return nil
}

// policySyncLocked applies the configured fsync policy after one
// append. Caller holds m.mu.
func (m *Manager) policySyncLocked() error {
	switch m.opts.Sync {
	case SyncAlways:
		return m.syncLocked()
	case SyncInterval:
		if time.Since(m.lastSync) >= time.Second {
			return m.syncLocked()
		}
	}
	return nil
}

// syncLocked flushes the active segment. Caller holds m.mu.
func (m *Manager) syncLocked() error {
	if m.seg == nil || !m.dirty {
		m.lastSync = time.Now()
		return nil
	}
	if err := m.seg.Sync(); err != nil {
		return fmt.Errorf("durable: fsync: %w", err)
	}
	metWALFsyncs.Inc()
	m.dirty = false
	m.lastSync = time.Now()
	return nil
}

// Sync forces the active segment to stable storage regardless of
// policy.
func (m *Manager) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.syncLocked()
}

// NextSeq returns the sequence number the next append will use.
func (m *Manager) NextSeq() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nextSeq
}

// WriteSnapshot durably persists one full-state snapshot and then
// compacts: snapshots whose simulated age (relative to meta.TakenAt)
// exceeds the retention window are removed — except the newest — and
// WAL segments wholly covered by the oldest retained snapshot are
// deleted. The WAL is synced first so the snapshot never references
// records that could still be lost.
func (m *Manager) WriteSnapshot(meta SnapshotMeta, payload []byte) error {
	if err := m.Sync(); err != nil {
		metWALErrors.Inc()
		metSnapshots.With("failed").Inc()
		return err
	}
	if _, err := writeSnapshotFile(m.opts.Dir, meta, payload); err != nil {
		metWALErrors.Inc()
		metSnapshots.With("failed").Inc()
		return err
	}
	metSnapshots.With("written").Inc()
	metSnapshotBytes.Set(float64(len(payload)))
	if err := m.compact(meta); err != nil {
		return err
	}
	m.updateSegmentGauge()
	return nil
}

// compact removes snapshots past the retention window and WAL segments
// wholly covered by every retained snapshot.
func (m *Manager) compact(latest SnapshotMeta) error {
	names, err := listSnapshots(m.opts.Dir)
	if err != nil {
		return fmt.Errorf("durable: list snapshots: %w", err)
	}
	cutoff := latest.TakenAt.Add(-m.opts.Retain)
	oldestRetained := latest.LastSeq
	for _, name := range names {
		path := filepath.Join(m.opts.Dir, name)
		seq, _ := parseSnapshotName(name)
		if seq == latest.LastSeq {
			continue // always keep the snapshot just written
		}
		meta, err := readSnapshotMeta(path)
		if err != nil || !meta.TakenAt.After(cutoff) {
			// Unreadable or lapsed: remove. A newer snapshot supersedes
			// it for recovery either way.
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("durable: drop snapshot %s: %w", name, err)
			}
			continue
		}
		if meta.LastSeq < oldestRetained {
			oldestRetained = meta.LastSeq
		}
	}

	// A segment is removable when the *next* segment starts at or below
	// oldestRetained+1 — then every record it holds is ≤ oldestRetained
	// and already captured by every retained snapshot.
	segs, err := listSegments(m.opts.Dir)
	if err != nil {
		return fmt.Errorf("durable: list segments: %w", err)
	}
	for i := 0; i+1 < len(segs); i++ {
		nextStart, _ := parseSegmentName(segs[i+1])
		if nextStart <= oldestRetained+1 {
			m.mu.Lock()
			active := filepath.Join(m.opts.Dir, segs[i]) == m.segPath
			m.mu.Unlock()
			if active {
				continue
			}
			if err := os.Remove(filepath.Join(m.opts.Dir, segs[i])); err != nil {
				return fmt.Errorf("durable: drop segment %s: %w", segs[i], err)
			}
		}
	}
	return nil
}

func (m *Manager) updateSegmentGauge() {
	if segs, err := listSegments(m.opts.Dir); err == nil {
		metWALSegments.Set(float64(len(segs)))
	}
}

// Close flushes and closes the append segment. The manager cannot be
// reused afterwards.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	if m.seg == nil {
		return nil
	}
	err := m.syncLocked()
	if cerr := m.seg.Close(); err == nil {
		err = cerr
	}
	m.seg = nil
	return err
}
