package durable

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Snapshot file layout:
//
//	"EXSNAP01" | u32 version | u32 metaLen | u32 payloadLen |
//	u32 crc32c(meta || payload) | meta JSON | payload
//
// The payload is opaque to this package (the pipeline serializes its
// own state into it); the meta block carries what recovery and
// compaction need. Snapshots are written to a temp file, fsynced, and
// renamed into place, so a crash mid-write can never leave a torn
// snapshot under the canonical name.

const (
	snapMagic      = "EXSNAP01"
	snapVersion    = 1
	snapHeaderSize = 8 + 4 + 4 + 4 + 4
)

// SnapshotMeta describes one snapshot.
type SnapshotMeta struct {
	// LastSeq is the last WAL record applied to the captured state;
	// replay resumes at LastSeq+1.
	LastSeq uint64 `json:"last_seq"`
	// EventCount is the lifetime count of sampler events applied to the
	// captured state — the resume-skip offset for regenerated streams.
	EventCount uint64 `json:"event_count"`
	// TakenAt is the feed server's simulated clock at capture; snapshot
	// retention (the historical lapse) is measured against it.
	TakenAt time.Time `json:"taken_at"`
}

// snapshotName renders the canonical file name for a snapshot.
func snapshotName(lastSeq uint64) string {
	return fmt.Sprintf("snap-%016x.snap", lastSeq)
}

// parseSnapshotName extracts the last sequence from a snapshot name.
func parseSnapshotName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap"), 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// writeSnapshotFile persists one snapshot durably into dir.
func writeSnapshotFile(dir string, meta SnapshotMeta, payload []byte) (string, error) {
	metaRaw, err := json.Marshal(meta)
	if err != nil {
		return "", fmt.Errorf("durable: encode snapshot meta: %w", err)
	}
	hdr := make([]byte, snapHeaderSize)
	copy(hdr, snapMagic)
	binary.LittleEndian.PutUint32(hdr[8:], snapVersion)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(metaRaw)))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(payload)))
	crc := crc32.Checksum(metaRaw, castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[20:], crc)

	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return "", fmt.Errorf("durable: snapshot temp: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { tmp.Close(); os.Remove(tmpName) }
	for _, chunk := range [][]byte{hdr, metaRaw, payload} {
		if _, err := tmp.Write(chunk); err != nil {
			cleanup()
			return "", fmt.Errorf("durable: write snapshot: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return "", fmt.Errorf("durable: sync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return "", fmt.Errorf("durable: close snapshot: %w", err)
	}
	final := filepath.Join(dir, snapshotName(meta.LastSeq))
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return "", fmt.Errorf("durable: publish snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return "", fmt.Errorf("durable: sync state dir: %w", err)
	}
	return final, nil
}

// readSnapshotMeta parses and validates only a snapshot's header and
// meta block (cheap: no payload read, no CRC).
func readSnapshotMeta(path string) (SnapshotMeta, error) {
	var meta SnapshotMeta
	f, err := os.Open(path)
	if err != nil {
		return meta, err
	}
	defer f.Close()
	hdr := make([]byte, snapHeaderSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return meta, fmt.Errorf("durable: %s: short header: %w", filepath.Base(path), err)
	}
	if string(hdr[:8]) != snapMagic {
		return meta, fmt.Errorf("durable: %s: bad magic", filepath.Base(path))
	}
	if err := checkVersion(filepath.Base(path), "snapshot", binary.LittleEndian.Uint32(hdr[8:]), snapVersion); err != nil {
		return meta, err
	}
	metaLen := binary.LittleEndian.Uint32(hdr[12:])
	if metaLen > maxRecordSize {
		return meta, fmt.Errorf("durable: %s: absurd meta length %d", filepath.Base(path), metaLen)
	}
	metaRaw := make([]byte, metaLen)
	if _, err := io.ReadFull(f, metaRaw); err != nil {
		return meta, fmt.Errorf("durable: %s: short meta: %w", filepath.Base(path), err)
	}
	if err := json.Unmarshal(metaRaw, &meta); err != nil {
		return meta, fmt.Errorf("durable: %s: decode meta: %w", filepath.Base(path), err)
	}
	return meta, nil
}

// readSnapshot loads and CRC-validates one full snapshot.
func readSnapshot(path string) (SnapshotMeta, []byte, error) {
	var meta SnapshotMeta
	raw, err := os.ReadFile(path)
	if err != nil {
		return meta, nil, err
	}
	name := filepath.Base(path)
	if len(raw) < snapHeaderSize {
		return meta, nil, fmt.Errorf("durable: %s: truncated header", name)
	}
	if string(raw[:8]) != snapMagic {
		return meta, nil, fmt.Errorf("durable: %s: bad magic", name)
	}
	if err := checkVersion(name, "snapshot", binary.LittleEndian.Uint32(raw[8:]), snapVersion); err != nil {
		return meta, nil, err
	}
	metaLen := int64(binary.LittleEndian.Uint32(raw[12:]))
	payloadLen := int64(binary.LittleEndian.Uint32(raw[16:]))
	wantCRC := binary.LittleEndian.Uint32(raw[20:])
	if int64(len(raw)) != snapHeaderSize+metaLen+payloadLen {
		return meta, nil, fmt.Errorf("durable: %s: size mismatch (%d bytes, want %d)",
			name, len(raw), snapHeaderSize+metaLen+payloadLen)
	}
	metaRaw := raw[snapHeaderSize : snapHeaderSize+metaLen]
	payload := raw[snapHeaderSize+metaLen:]
	crc := crc32.Checksum(metaRaw, castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	if crc != wantCRC {
		return meta, nil, fmt.Errorf("durable: %s: checksum mismatch", name)
	}
	if err := json.Unmarshal(metaRaw, &meta); err != nil {
		return meta, nil, fmt.Errorf("durable: %s: decode meta: %w", name, err)
	}
	return meta, payload, nil
}

// listSnapshots returns the directory's snapshot file names sorted by
// last sequence, ascending.
func listSnapshots(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if _, ok := parseSnapshotName(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}
