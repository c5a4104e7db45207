// Package pcapio reads and writes packet captures in the classic libpcap
// file format (LINKTYPE_RAW), optionally gzip-compressed, and organizes
// them into hourly files the way CAIDA's telescope collection does: one
// compressed capture per hour, named by its UTC hour. It replaces the
// OpenStack-Swift hourly object store the paper's pipeline polls.
package pcapio

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"exiot/internal/packet"
	"exiot/internal/telemetry"
)

// Telemetry handles for the capture-store stage (see docs/OPERATIONS.md).
var (
	metPacketsWritten = telemetry.Default().Counter("exiot_pcap_packets_written_total",
		"Packets written to pcap capture streams.")
	metPacketsRead = telemetry.Default().Counter("exiot_pcap_packets_read_total",
		"Packets read from pcap capture streams.")
	metHoursWritten = telemetry.Default().Counter("exiot_pcap_hours_written_total",
		"Hourly capture files published (atomic rename completed).")
	metHoursOpened = telemetry.Default().Counter("exiot_pcap_hours_read_total",
		"Hourly capture files opened for reading.")
)

// bufSize is the buffered-I/O window for capture streams.
const bufSize = 1 << 16

// Hourly capture churn is one open/close per simulated hour per stream,
// and each open used to allocate a fresh 64 KiB bufio buffer plus a gzip
// coder (the gzip.Writer alone carries ~800 KiB of deflate state). The
// pools below recycle them across hours; Reset on the way out of the
// pool makes reuse indistinguishable from a fresh allocation. A reader
// takes two bufio.Readers: one under the decompressor, one as the
// decode window over the read-ahead.
var (
	bufWriterPool = sync.Pool{New: func() any { return bufio.NewWriterSize(io.Discard, bufSize) }}
	bufReaderPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, bufSize) }}
	gzWriterPool  = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}
	gzReaderPool  = sync.Pool{New: func() any { return new(gzip.Reader) }}
)

const (
	// magicMicros is the classic libpcap magic: record timestamps carry
	// microsecond fractions. Captures from external collectors use it.
	magicMicros = 0xa1b2c3d4
	// magicNanos is the nanosecond-resolution pcap magic (as written by
	// tcpdump --time-stamp-precision=nano). The Writer emits it so a
	// capture→replay round trip preserves timestamps exactly: simulated
	// packets carry nanosecond stamps, and truncating them to
	// microseconds would shift the detector's canonical event order,
	// breaking replay/live feed byte-identity.
	magicNanos   = 0xa1b23c4d
	versionMajor = 2
	versionMinor = 4
	snapLen      = 65535
	linkTypeRaw  = 101 // raw IPv4
	recHdrLen    = 16  // per-record header: sec, frac, incl_len, orig_len
)

// ErrNotPcap is returned when a stream does not begin with the pcap magic.
var ErrNotPcap = errors.New("pcapio: not a pcap stream")

// Writer writes packets to a pcap stream.
type Writer struct {
	w       *bufio.Writer
	scratch []byte
}

// NewWriter writes the pcap global header and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	return newWriterBuf(bufio.NewWriterSize(w, bufSize))
}

func newWriterBuf(bw *bufio.Writer) (*Writer, error) {
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], magicNanos)
	binary.LittleEndian.PutUint16(hdr[4:], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:], versionMinor)
	// thiszone and sigfigs stay zero.
	binary.LittleEndian.PutUint32(hdr[16:], snapLen)
	binary.LittleEndian.PutUint32(hdr[20:], linkTypeRaw)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap header: %w", err)
	}
	return &Writer{w: bw}, nil
}

// WritePacket appends one packet record. Only headers are captured
// (telescope style): incl_len is the header length, orig_len the claimed
// on-wire length.
func (w *Writer) WritePacket(p *packet.Packet) error {
	w.scratch = p.Marshal(w.scratch[:0])
	var rec [16]byte
	ts := p.Timestamp
	binary.LittleEndian.PutUint32(rec[0:], uint32(ts.Unix()))
	binary.LittleEndian.PutUint32(rec[4:], uint32(ts.Nanosecond()))
	binary.LittleEndian.PutUint32(rec[8:], uint32(len(w.scratch)))
	origLen := uint32(p.TotalLength)
	if origLen < uint32(len(w.scratch)) {
		origLen = uint32(len(w.scratch))
	}
	binary.LittleEndian.PutUint32(rec[12:], origLen)
	if _, err := w.w.Write(rec[:]); err != nil {
		return fmt.Errorf("pcap record header: %w", err)
	}
	if _, err := w.w.Write(w.scratch); err != nil {
		return fmt.Errorf("pcap record body: %w", err)
	}
	metPacketsWritten.Inc()
	return nil
}

// Flush flushes buffered data to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader reads packets from a pcap stream.
type Reader struct {
	// r is the read window: records are decoded in place out of its
	// buffer, so it must hold a whole record body (bufSize > snapLen).
	r *bufio.Reader
	// fracMul scales the record timestamp fraction field to nanoseconds:
	// 1000 for classic microsecond captures, 1 for nanosecond captures.
	fracMul int64
	// index counts records already returned; torn-record errors carry it
	// so an operator knows how much of a damaged capture is usable.
	index int
}

// newReaderBuf validates the pcap global header and returns a Reader.
func newReaderBuf(br *bufio.Reader) (*Reader, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap header: %w", err)
	}
	var fracMul int64
	switch binary.LittleEndian.Uint32(hdr[0:]) {
	case magicMicros:
		fracMul = 1000
	case magicNanos:
		fracMul = 1
	default:
		return nil, ErrNotPcap
	}
	if lt := binary.LittleEndian.Uint32(hdr[20:]); lt != linkTypeRaw {
		return nil, fmt.Errorf("pcapio: unsupported link type %d", lt)
	}
	return &Reader{r: br, fracMul: fracMul}, nil
}

// torn maps an EOF hit mid-record onto a clean io.ErrUnexpectedEOF-wrapped
// error carrying the packet index, so callers can both detect truncation
// (errors.Is) and report how many whole packets preceded the tear. Real
// I/O errors pass through wrapped but without the truncation veneer.
func (r *Reader) torn(what string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("pcapio: truncated capture: packet record %d torn (%s): %w",
			r.index, what, io.ErrUnexpectedEOF)
	}
	return fmt.Errorf("pcapio: packet record %d %s: %w", r.index, what, err)
}

// Next reads the next packet. It returns io.EOF at a clean end of stream;
// a capture cut mid-record (a torn tail) returns an error wrapping
// io.ErrUnexpectedEOF that names the torn record's index — never a
// garbage packet.
//
// The record header and then the body are peeked in the read window and
// decoded where they lie. Every return leaves the stream where reading
// the same bytes out of it would have: a short peek discards the part it
// saw, and a refused record is still consumed.
func (r *Reader) Next(p *packet.Packet) error {
	rec, err := r.r.Peek(recHdrLen)
	if err != nil {
		if err == io.EOF && len(rec) == 0 {
			return io.EOF // clean end: no bytes of a next record
		}
		r.r.Discard(len(rec))
		return r.torn("header", err)
	}
	sec := binary.LittleEndian.Uint32(rec[0:])
	frac := binary.LittleEndian.Uint32(rec[4:])
	inclLen := binary.LittleEndian.Uint32(rec[8:])
	r.r.Discard(recHdrLen)
	if inclLen > snapLen {
		return fmt.Errorf("pcapio: packet record %d: length %d exceeds snaplen", r.index, inclLen)
	}
	body, err := r.r.Peek(int(inclLen))
	if err != nil {
		r.r.Discard(len(body))
		return r.torn("body", err)
	}
	_, err = p.Unmarshal(body)
	r.r.Discard(len(body))
	if err != nil {
		return fmt.Errorf("pcapio: packet record %d: %w", r.index, err)
	}
	p.Timestamp = time.Unix(int64(sec), int64(frac)*r.fracMul).UTC()
	r.index++
	metPacketsRead.Inc()
	return nil
}

// HourFileName returns the canonical file name for the capture hour
// containing t, e.g. "telescope-20201209-07.pcap.gz".
func HourFileName(t time.Time) string {
	return "telescope-" + t.UTC().Format("20060102-15") + ".pcap.gz"
}

// ParseHourFileName extracts the UTC hour from a canonical file name.
func ParseHourFileName(name string) (time.Time, error) {
	base := filepath.Base(name)
	if !strings.HasPrefix(base, "telescope-") || !strings.HasSuffix(base, ".pcap.gz") {
		return time.Time{}, fmt.Errorf("pcapio: %q is not an hourly capture name", name)
	}
	stamp := strings.TrimSuffix(strings.TrimPrefix(base, "telescope-"), ".pcap.gz")
	t, err := time.ParseInLocation("20060102-15", stamp, time.UTC)
	if err != nil {
		return time.Time{}, fmt.Errorf("pcapio: parse %q: %w", name, err)
	}
	return t, nil
}

// HourWriter writes one gzip-compressed hourly capture file.
type HourWriter struct {
	f  *os.File
	gz *gzip.Writer
	*Writer
	path string
}

// CreateHour creates (atomically via a temp name) the hourly capture file
// for hour inside dir.
func CreateHour(dir string, hour time.Time) (*HourWriter, error) {
	path := filepath.Join(dir, HourFileName(hour))
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return nil, fmt.Errorf("create hour capture: %w", err)
	}
	gz := gzWriterPool.Get().(*gzip.Writer)
	gz.Reset(f)
	bw := bufWriterPool.Get().(*bufio.Writer)
	bw.Reset(gz)
	w, err := newWriterBuf(bw)
	if err != nil {
		gzWriterPool.Put(gz)
		bufWriterPool.Put(bw)
		f.Close()
		return nil, err
	}
	return &HourWriter{f: f, gz: gz, Writer: w, path: path}, nil
}

// Close flushes, closes, and renames the capture into place. Only after
// Close returns does the hour become visible to pollers — matching the
// paper's "constantly checks for newly added data sources (hourly)" model.
func (hw *HourWriter) Close() error {
	if err := hw.Flush(); err != nil {
		return err
	}
	if err := hw.gz.Close(); err != nil {
		return fmt.Errorf("close gzip: %w", err)
	}
	// Recycle the coder and buffer; drop references to the closed file
	// first so pooled objects never pin it. Error paths above skip the
	// Put — a writer in a failed state must not be reused.
	hw.Writer.w.Reset(io.Discard)
	bufWriterPool.Put(hw.Writer.w)
	hw.gz.Reset(io.Discard)
	gzWriterPool.Put(hw.gz)
	if err := hw.f.Close(); err != nil {
		return fmt.Errorf("close capture: %w", err)
	}
	if err := os.Rename(hw.path+".tmp", hw.path); err != nil {
		return fmt.Errorf("publish capture: %w", err)
	}
	metHoursWritten.Inc()
	return nil
}

// OpenHour opens the hourly capture file for hour inside dir.
func OpenHour(dir string, hour time.Time) (*HourReader, error) {
	return OpenCapture(filepath.Join(dir, HourFileName(hour)))
}

// HourReader reads one capture file, gzip-compressed or plain. Between
// the file and the Reader's window sits a read-ahead goroutine (see
// readahead.go), so the file is read — and inflated — while the caller
// works on the packets already returned. Next and Close must not be
// called concurrently.
type HourReader struct {
	f  *os.File
	fb *bufio.Reader // file side: sniffed for the gzip magic, feeds gz or ahead
	gz *gzip.Reader  // nil for uncompressed captures
	// ahead is nil until the stream is set up; Close handles every
	// partly-built state.
	ahead *readAhead
	win   *bufio.Reader // the Reader's window over ahead
	*Reader
}

// OpenCapture opens a capture file by path, accepting both plain .pcap
// and gzip-compressed .pcap.gz files — the compression is sniffed from
// the leading magic bytes, not the file name, so renamed or externally
// produced captures work too.
func OpenCapture(path string) (*HourReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open capture: %w", err)
	}
	hr := &HourReader{f: f, fb: bufReaderPool.Get().(*bufio.Reader)}
	hr.fb.Reset(f)
	var src io.Reader = hr.fb
	if magic, err := hr.fb.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		// Gzip container: the decompressor goes between file and read-ahead.
		hr.gz = gzReaderPool.Get().(*gzip.Reader)
		if err := hr.gz.Reset(hr.fb); err != nil {
			// Header refused: the coder never started, so there is
			// nothing for Close to close.
			gzReaderPool.Put(hr.gz)
			hr.gz = nil
			hr.Close()
			return nil, fmt.Errorf("open gzip: %w", err)
		}
		src = hr.gz
	}
	hr.ahead = startReadAhead(src)
	hr.win = bufReaderPool.Get().(*bufio.Reader)
	hr.win.Reset(hr.ahead)
	if hr.Reader, err = newReaderBuf(hr.win); err != nil {
		hr.Close()
		return nil, err
	}
	metHoursOpened.Inc()
	return hr, nil
}

// Close stops the read-ahead, closes the capture file and recycles the
// stream buffers. The read-ahead goroutine has exited before anything it
// reads from goes back to a pool or is closed.
func (hr *HourReader) Close() error {
	if hr.ahead != nil {
		hr.ahead.stop()
	}
	if hr.win != nil {
		hr.win.Reset(nil)
		bufReaderPool.Put(hr.win)
	}
	var gzErr error
	if hr.gz != nil {
		// A decompressor that failed is dropped, not reused.
		if gzErr = hr.gz.Close(); gzErr == nil {
			gzReaderPool.Put(hr.gz)
		}
	}
	// The pooled decompressor still points at fb until its next Reset;
	// resetting fb means it cannot reach the closed file through it.
	hr.fb.Reset(nil)
	bufReaderPool.Put(hr.fb)
	if err := hr.f.Close(); err != nil {
		return err
	}
	return gzErr
}

// ListHours returns the capture hours available in dir, sorted ascending.
// In-progress (.tmp) files are invisible.
func ListHours(dir string) ([]time.Time, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("list capture dir: %w", err)
	}
	var hours []time.Time
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		t, err := ParseHourFileName(e.Name())
		if err != nil {
			continue // not a capture file
		}
		hours = append(hours, t)
	}
	sort.Slice(hours, func(i, j int) bool { return hours[i].Before(hours[j]) })
	return hours, nil
}
