package pcapio

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"exiot/internal/packet"
)

// buildStream writes n packets into a plain (uncompressed) pcap stream
// and returns the raw bytes plus the offset where the last record begins.
func buildStream(t *testing.T, n int) (raw []byte, lastRecStart int) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(42))
	base := time.Date(2021, 6, 1, 12, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		if i == n-1 {
			// Flush so buf.Len() marks the exact start of the tail record.
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			lastRecStart = buf.Len()
		}
		p := randomPacket(r, base.Add(time.Duration(i)*time.Millisecond))
		if err := w.WritePacket(&p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), lastRecStart
}

// TestTruncatedTailEveryOffset is the fuzz-style torn-record sweep: a
// capture cut at every byte offset inside its final record must yield
// exactly n-1 good packets and then a clean io.ErrUnexpectedEOF-wrapped
// error naming the torn record's index — never a garbage packet, a
// panic, or a silent io.EOF that hides the damage.
func TestTruncatedTailEveryOffset(t *testing.T) {
	const n = 5
	raw, lastRecStart := buildStream(t, n)
	if lastRecStart >= len(raw) {
		t.Fatalf("tail record start %d not inside stream of %d bytes", lastRecStart, len(raw))
	}
	// A cut at exactly lastRecStart is a clean boundary (the tail record
	// is wholly absent), so the torn sweep starts one byte inside it.
	for cut := lastRecStart + 1; cut < len(raw); cut++ {
		rd, err := NewReader(bytes.NewReader(raw[:cut]))
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		var p packet.Packet
		for i := 0; i < n-1; i++ {
			if err := rd.Next(&p); err != nil {
				t.Fatalf("cut %d: intact packet %d: %v", cut, i, err)
			}
		}
		err = rd.Next(&p)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d: want io.ErrUnexpectedEOF-wrapped error, got %v", cut, err)
		}
		if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d: torn tail reported as clean EOF", cut)
		}
		if want := fmt.Sprintf("record %d", n-1); !strings.Contains(err.Error(), want) {
			t.Fatalf("cut %d: error %q does not name torn record index %d", cut, err, n-1)
		}
		if rd.Index() != n-1 {
			t.Fatalf("cut %d: Index() = %d, want %d", cut, rd.Index(), n-1)
		}
	}
	// Sanity: the untruncated stream still ends in clean io.EOF.
	rd, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var p packet.Packet
	for i := 0; i < n; i++ {
		if err := rd.Next(&p); err != nil {
			t.Fatalf("intact packet %d: %v", i, err)
		}
	}
	if err := rd.Next(&p); !errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("intact stream: want bare io.EOF, got %v", err)
	}

	t.Run("OpenCapture", testTruncatedAcrossBlocks)
}

// testTruncatedAcrossBlocks is the same sweep through OpenCapture's
// read-ahead, on a capture larger than the whole ring: cuts one byte
// before, on and one byte after a block boundary, and a header tear, a
// body tear and a clean record boundary beside it — at the first block,
// at the last block of the ring and at the first block past it. Plain
// and gzip-compressed, each cut must yield every whole record before it
// and then the same verdict the in-memory sweep demands.
func testTruncatedAcrossBlocks(t *testing.T) {
	const n = 85_000 // ~4.5 MiB of stream
	raw, _ := buildStream(t, n)
	// Every record of buildStream's is the same size.
	recLen := (len(raw) - 24) / n
	if len(raw) != 24+n*recLen || len(raw) <= (readAheadBlocks+1)*readAheadBlock {
		t.Fatalf("stream of %d bytes in %d-byte records does not span the ring", len(raw), recLen)
	}
	dir := t.TempDir()
	for _, blocks := range []int{1, readAheadBlocks, readAheadBlocks + 1} {
		edge := blocks * readAheadBlock
		straddler := (edge - 24) / recLen // the record the block boundary falls in
		recStart := 24 + straddler*recLen
		for _, cut := range []int{edge - 1, edge, edge + 1, recStart, recStart + 7, recStart + recHdrLen + 9} {
			whole := (cut - 24) / recLen
			torn := (cut-24)%recLen != 0
			plain := filepath.Join(dir, "cut.pcap")
			if err := os.WriteFile(plain, raw[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			zipped := filepath.Join(dir, "cut.pcap.gz")
			var zbuf bytes.Buffer
			zw, _ := gzip.NewWriterLevel(&zbuf, gzip.NoCompression) // the container matters here, not the coding
			zw.Write(raw[:cut])
			zw.Close()
			if err := os.WriteFile(zipped, zbuf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, path := range []string{plain, zipped} {
				hr, err := OpenCapture(path)
				if err != nil {
					t.Fatalf("cut %d: open %s: %v", cut, path, err)
				}
				var p packet.Packet
				for i := 0; i < whole; i++ {
					if err := hr.Next(&p); err != nil {
						t.Fatalf("cut %d %s: intact packet %d: %v", cut, path, i, err)
					}
				}
				err = hr.Next(&p)
				switch {
				case !torn && err != io.EOF:
					t.Fatalf("cut %d %s: cut on a record boundary: want bare io.EOF, got %v", cut, path, err)
				case torn && !errors.Is(err, io.ErrUnexpectedEOF):
					t.Fatalf("cut %d %s: want io.ErrUnexpectedEOF-wrapped error, got %v", cut, path, err)
				case torn && !strings.Contains(err.Error(), fmt.Sprintf("record %d torn", whole)):
					t.Fatalf("cut %d %s: error %q does not name torn record index %d", cut, path, err, whole)
				}
				if hr.Index() != whole {
					t.Fatalf("cut %d %s: Index() = %d, want %d", cut, path, hr.Index(), whole)
				}
				if err := hr.Close(); err != nil {
					t.Fatalf("cut %d %s: close: %v", cut, path, err)
				}
			}
		}
	}
}

// TestTruncatedHeaderStream covers tears inside the 24-byte global
// header: every prefix shorter than the header must fail to open, never
// yield a Reader.
func TestTruncatedHeaderStream(t *testing.T) {
	raw, _ := buildStream(t, 1)
	for cut := 0; cut < 24; cut++ {
		if _, err := NewReader(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("cut %d: header-torn stream opened without error", cut)
		}
	}
}

// TestMicrosecondCaptureAccepted proves the Reader still speaks the
// classic microsecond pcap dialect external collectors produce: a
// hand-built µs-magic stream decodes with fractions scaled to ns.
func TestMicrosecondCaptureAccepted(t *testing.T) {
	raw, lastRecStart := buildStream(t, 1)
	// Rewrite the magic to the classic µs value. The single record's
	// fraction field (offset lastRecStart+4) currently holds nanoseconds;
	// scale it down so the µs interpretation matches.
	le := raw[:24]
	le[0], le[1], le[2], le[3] = 0xd4, 0xc3, 0xb2, 0xa1
	frac := uint32(raw[lastRecStart+4]) | uint32(raw[lastRecStart+5])<<8 |
		uint32(raw[lastRecStart+6])<<16 | uint32(raw[lastRecStart+7])<<24
	us := frac / 1000
	raw[lastRecStart+4] = byte(us)
	raw[lastRecStart+5] = byte(us >> 8)
	raw[lastRecStart+6] = byte(us >> 16)
	raw[lastRecStart+7] = byte(us >> 24)

	rd, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("µs-magic stream rejected: %v", err)
	}
	var p packet.Packet
	if err := rd.Next(&p); err != nil {
		t.Fatal(err)
	}
	if got := p.Timestamp.Nanosecond(); got != int(us)*1000 {
		t.Fatalf("µs fraction decoded to %d ns, want %d", got, us*1000)
	}
}

// TestOpenCaptureSniffsCompression proves OpenCapture accepts both a
// plain .pcap and a gzip-compressed capture of the same packets, by
// content sniffing rather than file extension.
func TestOpenCaptureSniffsCompression(t *testing.T) {
	dir := t.TempDir()
	raw, _ := buildStream(t, 10)

	plain := filepath.Join(dir, "capture.pcap")
	if err := os.WriteFile(plain, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// Write the same packets through the gzip hourly writer, then rename
	// to a non-canonical name to prove sniffing ignores the extension.
	hour := time.Date(2021, 6, 1, 12, 0, 0, 0, time.UTC)
	hw, err := CreateHour(dir, hour)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var p packet.Packet
	for {
		if err := rd.Next(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if err := hw.WritePacket(&p); err != nil {
			t.Fatal(err)
		}
	}
	if err := hw.Close(); err != nil {
		t.Fatal(err)
	}
	gzPath := filepath.Join(dir, "capture.bin")
	if err := os.Rename(filepath.Join(dir, HourFileName(hour)), gzPath); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{plain, gzPath} {
		hr, err := OpenCapture(path)
		if err != nil {
			t.Fatalf("OpenCapture(%s): %v", path, err)
		}
		n := 0
		for {
			if err := hr.Next(&p); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				t.Fatalf("%s packet %d: %v", path, n, err)
			}
			n++
		}
		if n != 10 {
			t.Fatalf("%s: read %d packets, want 10", path, n)
		}
		if err := hr.Close(); err != nil {
			t.Fatalf("close %s: %v", path, err)
		}
	}

	if _, err := OpenCapture(filepath.Join(dir, "missing.pcap")); err == nil {
		t.Error("want error for missing file")
	}
}
