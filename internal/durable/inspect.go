package durable

import (
	"fmt"
	"os"
	"path/filepath"
)

// This file is the offline inspection surface behind `exiotctl state`:
// it reads a state directory without a Manager (and without touching
// it) and reports per-file metadata plus CRC validation results.

// SegmentInfo describes one WAL segment file.
type SegmentInfo struct {
	Name      string `json:"name"`
	Size      int64  `json:"size"`
	StartSeq  uint64 `json:"start_seq"`
	FirstSeq  uint64 `json:"first_seq,omitempty"`
	LastSeq   uint64 `json:"last_seq,omitempty"`
	Records   int    `json:"records"`
	ValidLen  int64  `json:"valid_bytes"`
	TornBytes int64  `json:"torn_bytes,omitempty"`
	Error     string `json:"error,omitempty"`
	// Refused marks an Error that is another release's format, not
	// damage: recovery stops on it instead of repairing it.
	Refused bool `json:"refused,omitempty"`
}

// SnapshotInfo describes one snapshot file.
type SnapshotInfo struct {
	Name    string       `json:"name"`
	Size    int64        `json:"size"`
	Meta    SnapshotMeta `json:"meta"`
	Valid   bool         `json:"valid"`
	Error   string       `json:"error,omitempty"`
	Refused bool         `json:"refused,omitempty"`
}

// DirInfo is the full inspection report for a state directory.
type DirInfo struct {
	Dir       string         `json:"dir"`
	Snapshots []SnapshotInfo `json:"snapshots"`
	Segments  []SegmentInfo  `json:"segments"`
}

// Problems lists every validation failure in the report: corrupt
// snapshots, unreadable segment headers, and torn segment tails.
func (d *DirInfo) Problems() []string {
	var out []string
	for _, s := range d.Snapshots {
		if !s.Valid {
			out = append(out, fmt.Sprintf("snapshot %s: %s", s.Name, s.Error))
		}
	}
	for _, s := range d.Segments {
		switch {
		case s.Error != "":
			out = append(out, fmt.Sprintf("segment %s: %s", s.Name, s.Error))
		case s.TornBytes > 0:
			out = append(out, fmt.Sprintf("segment %s: %d torn trailing bytes after seq %d (replay truncates here)",
				s.Name, s.TornBytes, s.LastSeq))
		}
	}
	return out
}

// Inspect reads a state directory offline and reports every snapshot
// and WAL segment with full CRC validation. The directory is opened
// read-only; nothing is repaired or truncated.
func Inspect(dir string) (*DirInfo, error) {
	if fi, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("durable: state dir: %w", err)
	} else if !fi.IsDir() {
		return nil, fmt.Errorf("durable: %s is not a directory", dir)
	}
	info := &DirInfo{Dir: dir}

	snaps, err := listSnapshots(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: list snapshots: %w", err)
	}
	for _, name := range snaps {
		path := filepath.Join(dir, name)
		si := SnapshotInfo{Name: name}
		if fi, err := os.Stat(path); err == nil {
			si.Size = fi.Size()
		}
		meta, _, err := readSnapshot(path)
		if err != nil {
			si.Error, si.Refused = err.Error(), refused(err)
		} else {
			si.Meta = meta
			si.Valid = true
		}
		info.Snapshots = append(info.Snapshots, si)
	}

	segs, err := listSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: list segments: %w", err)
	}
	for _, name := range segs {
		sc, err := scanSegment(filepath.Join(dir, name), nil)
		if err != nil {
			return nil, fmt.Errorf("durable: scan %s: %w", name, err)
		}
		si := SegmentInfo{
			Name:     sc.name,
			Size:     sc.size,
			StartSeq: sc.startSeq,
			FirstSeq: sc.firstSeq,
			LastSeq:  sc.lastSeq,
			Records:  sc.records,
			ValidLen: sc.validLen,
		}
		if sc.headerErr != nil {
			si.Error, si.Refused = sc.headerErr.Error(), refused(sc.headerErr)
			si.ValidLen = 0
			si.TornBytes = sc.size
		} else if sc.torn {
			si.TornBytes = sc.size - sc.validLen
		}
		info.Segments = append(info.Segments, si)
	}
	return info, nil
}

// Verify runs the same validation as Inspect and returns the list of
// problems found (empty means every CRC checks out).
func Verify(dir string) ([]string, error) {
	info, err := Inspect(dir)
	if err != nil {
		return nil, err
	}
	return info.Problems(), nil
}

// ScanRecords streams every valid WAL event in dir to fn, in segment
// then sequence order, without a Manager. Offline forensics tooling
// (`exiotctl state inspect`) uses it to decode the logged events — e.g.
// to list the trace IDs recorded in sampler batches for joining against
// a live server's /traces store. A Record's Payload is valid only until
// fn returns. Torn segment tails and damaged headers are skipped, not
// errors; a segment from another release, or fn returning an error,
// stops the scan with that error.
func ScanRecords(dir string, fn func(Record) error) error {
	segs, err := listSegments(dir)
	if err != nil {
		return fmt.Errorf("durable: list segments: %w", err)
	}
	for _, name := range segs {
		sc, err := scanSegment(filepath.Join(dir, name), fn)
		if err != nil {
			return fmt.Errorf("durable: scan %s: %w", name, err)
		}
		if refused(sc.headerErr) {
			return sc.headerErr
		}
	}
	return nil
}

// RecordOffsets returns the byte offset of every valid record in one
// segment file, plus the offset just past the last valid record. Tests
// (and the kill-and-recover harness) use it to truncate a log at an
// exact record boundary.
func RecordOffsets(path string) ([]int64, int64, error) {
	sc, err := scanSegment(path, nil)
	if err != nil {
		return nil, 0, err
	}
	if sc.headerErr != nil {
		return nil, 0, sc.headerErr
	}
	// scanSegment validated the prefix; walk the frame lengths to place
	// each record's start offset.
	var offsets []int64
	off := int64(segHeaderSize)
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	buf := make([]byte, recHeaderSize)
	for off < sc.validLen {
		offsets = append(offsets, off)
		if _, err := f.ReadAt(buf, off); err != nil {
			return nil, 0, err
		}
		payloadLen := int64(uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24)
		off += recHeaderSize + payloadLen
	}
	return offsets, sc.validLen, nil
}
