package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
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

// WAL segment layout:
//
//	header (24 bytes): "EXWALSEG" | u32 version | u32 reserved | u64 startSeq
//	record:            u32 payloadLen | u32 crc32c(payload) | payload
//	payload:           u8 type | u64 seq | body
//
// RecordEvent body: i64 availableAt (UnixNano, UTC) | u8 wireKind | event bytes.
// RecordRetrain body: metadata JSON.
//
// The header's version names the codec of the event bytes. Version 2,
// the only one written, holds the wire's v2 binary payloads
// (pipeline.AppendEncodeEvent); version 1 held JSON payloads and is
// read, never written or appended to, for one release. A version above
// segVersion is a state directory from a newer exiotd: refused, not
// repaired.
//
// All integers are little-endian. Sequence numbers are strictly
// consecutive within a segment and across the live log, so a CRC match
// with a wrong seq is still rejected. A record that fails any check
// marks the torn tail: everything before it is the recovered prefix.

const (
	segMagic      = "EXWALSEG"
	segVersion    = 2
	segVersionV1  = 1 // JSON event payloads; read-only
	segHeaderSize = 8 + 4 + 4 + 8
	recHeaderSize = 4 + 4
	// recPrefixSize is the type and sequence every payload starts with,
	// eventHeadSize the availableAt and wire kind ahead of event bytes.
	recPrefixSize = 1 + 8
	eventHeadSize = 8 + 1
	// maxRecordSize bounds a record's payload so a corrupted length
	// field cannot trigger a giant allocation during replay.
	maxRecordSize = 64 << 20
	// scanBufSize is the read buffer of one segment pass.
	scanBufSize = 64 << 10
)

// errNewerFormat marks a well-formed segment or snapshot header whose
// version is above the one this binary writes. Recovery stops on it and
// touches no file: deleting it as corruption would destroy the state a
// newer exiotd left.
var errNewerFormat = errors.New("state directory written by a newer exiotd")

// payloadCodec maps a segment version to the wire.Frame.Version that
// decodes its event bytes: 0 is the legacy JSON, 2 wire.Version2.
func payloadCodec(segVer uint32) uint8 {
	if segVer == segVersionV1 {
		return 0
	}
	return 2
}

// segmentName renders the canonical file name for a starting sequence.
func segmentName(startSeq uint64) string {
	return fmt.Sprintf("wal-%016x.seg", startSeq)
}

// parseSegmentName extracts the start sequence from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// encodeSegmentHeader renders a segment header.
func encodeSegmentHeader(startSeq uint64) []byte {
	hdr := make([]byte, segHeaderSize)
	copy(hdr, segMagic)
	binary.LittleEndian.PutUint32(hdr[8:], segVersion)
	binary.LittleEndian.PutUint64(hdr[16:], startSeq)
	return hdr
}

// decodeRecord parses a validated payload into a Record whose Payload
// aliases it; codec is what the segment's version says event bytes are
// in (payloadCodec).
func decodeRecord(payload []byte, codec uint8) (Record, error) {
	if len(payload) < recPrefixSize {
		return Record{}, fmt.Errorf("durable: record payload too short (%d bytes)", len(payload))
	}
	rec := Record{
		Type: RecordType(payload[0]),
		Seq:  binary.LittleEndian.Uint64(payload[1:]),
	}
	body := payload[recPrefixSize:]
	switch rec.Type {
	case RecordEvent:
		if len(body) < eventHeadSize {
			return Record{}, fmt.Errorf("durable: event record body too short (%d bytes)", len(body))
		}
		rec.AvailableAt = time.Unix(0, int64(binary.LittleEndian.Uint64(body))).UTC()
		rec.Kind = body[8]
		rec.Version = codec
		rec.Payload = body[eventHeadSize:]
	case RecordRetrain:
		rec.Payload = body
	default:
		return Record{}, fmt.Errorf("durable: unknown record type %d", payload[0])
	}
	return rec, nil
}

// segScan summarizes one scanned segment.
type segScan struct {
	path      string
	name      string
	size      int64
	version   uint32 // from the header (0 when unreadable)
	startSeq  uint64 // from the header
	firstSeq  uint64 // first record (0 when empty)
	lastSeq   uint64 // last valid record (0 when empty)
	records   int
	events    int
	retrains  int
	validLen  int64 // bytes up to and including the last valid record
	torn      bool  // trailing bytes failed validation
	gap       bool  // sequence gap before this segment: nothing applied
	headerErr error // header invalid: whole file is opaque
}

// scanSegment validates one segment front to back, invoking fn for every
// valid record (fn may be nil). A Record's Payload is valid only until
// fn returns: the pass reads through one buffer. Validation stops at the
// first framing or CRC failure — the torn tail — and never errors for
// it; only I/O or header problems surface as errors via headerErr/err.
// A header from a newer format is a headerErr wrapping errNewerFormat.
func scanSegment(path string, fn func(Record) error) (segScan, error) {
	sc := segScan{path: path, name: filepath.Base(path)}
	f, err := os.Open(path)
	if err != nil {
		return sc, err
	}
	defer f.Close()
	if fi, err := f.Stat(); err == nil {
		sc.size = fi.Size()
	}
	br := bufio.NewReaderSize(f, scanBufSize)

	var hdr [segHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		sc.headerErr = fmt.Errorf("durable: %s: short header: %w", sc.name, err)
		return sc, nil
	}
	if string(hdr[:8]) != segMagic {
		sc.headerErr = fmt.Errorf("durable: %s: bad magic", sc.name)
		return sc, nil
	}
	if r := binary.LittleEndian.Uint32(hdr[12:]); r != 0 {
		sc.headerErr = fmt.Errorf("durable: %s: corrupt header (reserved = %#x)", sc.name, r)
		return sc, nil
	}
	v := binary.LittleEndian.Uint32(hdr[8:])
	if v < segVersionV1 {
		sc.headerErr = fmt.Errorf("durable: %s: unsupported version %d", sc.name, v)
		return sc, nil
	}
	sc.version = v
	if v > segVersion {
		sc.headerErr = fmt.Errorf("durable: %s: segment version %d, this binary reads up to %d: %w",
			sc.name, v, segVersion, errNewerFormat)
		return sc, nil
	}
	codec := payloadCodec(v)
	sc.startSeq = binary.LittleEndian.Uint64(hdr[16:])
	sc.validLen = segHeaderSize

	var recHdr [recHeaderSize]byte
	var buf []byte // one payload at a time; grows to the largest record
	wantSeq := sc.startSeq
	for {
		if _, err := io.ReadFull(br, recHdr[:]); err != nil {
			sc.torn = err != io.EOF
			break
		}
		payloadLen := binary.LittleEndian.Uint32(recHdr[0:])
		wantCRC := binary.LittleEndian.Uint32(recHdr[4:])
		if payloadLen < recPrefixSize || payloadLen > maxRecordSize ||
			sc.validLen+recHeaderSize+int64(payloadLen) > sc.size {
			sc.torn = true
			break
		}
		if int(payloadLen) > cap(buf) {
			// The length was just checked against the file's size, and
			// doubling keeps a pass to a handful of allocations.
			buf = make([]byte, max(int(payloadLen), 2*cap(buf)))
		}
		payload := buf[:payloadLen]
		if _, err := io.ReadFull(br, payload); err != nil {
			sc.torn = true
			break
		}
		if crc32.Checksum(payload, castagnoli) != wantCRC {
			sc.torn = true
			break
		}
		rec, err := decodeRecord(payload, codec)
		if err != nil || rec.Seq != wantSeq {
			sc.torn = true
			break
		}
		if sc.records == 0 {
			sc.firstSeq = rec.Seq
		}
		sc.lastSeq = rec.Seq
		sc.records++
		switch rec.Type {
		case RecordEvent:
			sc.events++
		case RecordRetrain:
			sc.retrains++
		}
		sc.validLen += recHeaderSize + int64(payloadLen)
		wantSeq++
		if fn != nil {
			if err := fn(rec); err != nil {
				return sc, err
			}
		}
	}
	return sc, nil
}

// listSegments returns the directory's segments sorted by start
// sequence. Files with unparseable names are ignored.
func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if _, ok := parseSegmentName(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // zero-padded hex start seqs sort numerically
	return names, nil
}

// syncDir fsyncs a directory so renames and creates inside it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
