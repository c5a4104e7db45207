package pcapio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"exiot/internal/packet"
)

// refNext is the decoder Reader.Next replaced, kept as the reference the
// in-place one is fuzzed against: each record header and body is copied
// out of the stream with io.ReadFull before it is looked at.
func refNext(r *Reader, scratch []byte, p *packet.Packet) error {
	var rec [recHdrLen]byte
	if _, err := io.ReadFull(r.r, rec[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return r.torn("header", err)
	}
	sec := binary.LittleEndian.Uint32(rec[0:])
	frac := binary.LittleEndian.Uint32(rec[4:])
	inclLen := binary.LittleEndian.Uint32(rec[8:])
	if inclLen > snapLen {
		return fmt.Errorf("pcapio: packet record %d: length %d exceeds snaplen", r.index, inclLen)
	}
	buf := scratch[:inclLen]
	if _, err := io.ReadFull(r.r, buf); err != nil {
		return r.torn("body", err)
	}
	if _, err := p.Unmarshal(buf); err != nil {
		return fmt.Errorf("pcapio: packet record %d: %w", r.index, err)
	}
	p.Timestamp = time.Unix(int64(sec), int64(frac)*r.fracMul).UTC()
	r.index++
	return nil
}

// errClass is what callers tell apart: a clean end, a torn capture, or
// anything else.
func errClass(err error) string {
	switch {
	case err == nil:
		return "packet"
	case err == io.EOF:
		return "eof"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "torn"
	}
	return "other"
}

// chunkReader hands its bytes out at most n at a time, so records
// straddle the read window's refills however small the input is.
type chunkReader struct {
	data []byte
	n    int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := min(c.n, len(p), len(c.data))
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// fuzzSeed is one stream of the committed corpus and where the decoder
// must stop on it: after index whole packets, with an error containing
// err ("" for a clean io.EOF).
type fuzzSeed struct {
	name  string
	data  []byte
	index int
	err   string
}

// fuzzSeeds builds the committed corpus: one stream per decoder branch.
func fuzzSeeds() []fuzzSeed {
	r := rand.New(rand.NewSource(24))
	base := time.Date(2021, 6, 1, 12, 0, 0, 0, time.UTC)
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], magicNanos)
	binary.LittleEndian.PutUint16(hdr[4:], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:], versionMinor)
	binary.LittleEndian.PutUint32(hdr[16:], snapLen)
	binary.LittleEndian.PutUint32(hdr[20:], linkTypeRaw)
	// record frames body as one packet record; inclLen is written as
	// given so a seed can lie about it.
	record := func(i int, inclLen uint32, body []byte) []byte {
		ts := base.Add(time.Duration(i) * time.Millisecond)
		rec := make([]byte, recHdrLen, recHdrLen+len(body))
		binary.LittleEndian.PutUint32(rec[0:], uint32(ts.Unix()))
		binary.LittleEndian.PutUint32(rec[4:], uint32(ts.Nanosecond()))
		binary.LittleEndian.PutUint32(rec[8:], inclLen)
		binary.LittleEndian.PutUint32(rec[12:], inclLen)
		return append(rec, body...)
	}
	body := func(i int) []byte {
		p := randomPacket(r, base)
		if i%2 == 1 {
			p.Options = packet.TCPOptions{HasMSS: true, MSS: 1460, SACKPermitted: true}
			p.Normalize()
		}
		return p.Marshal(nil)
	}
	stream := func(recs ...[]byte) []byte {
		return append(hdr[:len(hdr):len(hdr)], bytes.Join(recs, nil)...)
	}
	good := func(i int) []byte { b := body(i); return record(i, uint32(len(b)), b) }

	valid := stream(good(0), good(1), good(2), good(3))
	micros := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(micros[0:], magicMicros)

	// Two snaplen-sized records: each is larger than the window minus a
	// record header, and together they wrap it.
	big := append(body(0), make([]byte, snapLen)...)[:snapLen]
	jumbo := stream(record(0, snapLen, big), record(1, snapLen, big), good(2))

	mutate := func(at int, v byte) []byte {
		b := body(0)
		b[at] = v
		return stream(good(0), record(1, uint32(len(b)), b), good(2))
	}
	return []fuzzSeed{
		{"valid-ns", valid, 4, ""},
		{"valid-us", micros, 4, ""},
		{"incl-65535", jumbo, 3, ""},
		{"incl-gt-snap", stream(good(0), record(1, snapLen+1, body(1)), good(2)), 1, "record 1: length 65536 exceeds snaplen"},
		{"torn-header", valid[:len(valid)-len(good(3))+7], 3, "record 3 torn (header)"},
		{"torn-body", valid[:len(valid)-5], 3, "record 3 torn (body)"},
		{"bad-ihl", mutate(0, 0x44), 1, "record 1: unmarshal packet: bad ihl"},
		{"bad-tcp-offset", mutate(20+12, 0x10), 1, "record 1: unmarshal packet: bad tcp offset"},
		{"bad-checksum", mutate(10, 0xff), 1, "record 1: unmarshal packet: ip checksum"},
	}
}

// FuzzReaderNext holds the in-place decoder to the copying one it
// replaced: over any bytes, fed in any chunking, both return the same
// packets, the same class of error at the same Index(), and leave the
// stream at the same place — checked by reading on past the first error
// in lockstep until the stream is spent.
func FuzzReaderNext(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed.data, uint16(0))
		f.Add(seed.data, uint16(7))
	}
	scratch := make([]byte, snapLen)
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		open := func() (*Reader, error) {
			if chunk == 0 {
				return NewReader(bytes.NewReader(data))
			}
			return NewReader(&chunkReader{data: data, n: int(chunk)})
		}
		got, gotErr := open()
		// The reference reads through a window of its own.
		want, wantErr := newReaderBuf(bufio.NewReaderSize(bytes.NewReader(data), bufSize))
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("open: %v, reference %v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		torn := false
		// Every call consumes at least a record header or ends the
		// stream, so this bounds the walk.
		for step := 0; step <= len(data)/recHdrLen+2; step++ {
			var gp, wp packet.Packet
			gerr, werr := got.Next(&gp), refNext(want, scratch, &wp)
			if errClass(gerr) != errClass(werr) {
				t.Fatalf("step %d: %v, reference %v", step, gerr, werr)
			}
			if got.Index() != want.Index() {
				t.Fatalf("step %d: Index() %d, reference %d", step, got.Index(), want.Index())
			}
			switch errClass(gerr) {
			case "packet":
				if torn {
					t.Fatalf("step %d: a packet after a torn record", step)
				}
				if gp != wp {
					t.Fatalf("step %d: packet %+v, reference %+v", step, gp, wp)
				}
			case "torn":
				torn = true
			case "eof":
				return
			}
		}
		t.Fatalf("no end of stream within %d records of a %d-byte input", len(data)/recHdrLen+2, len(data))
	})
}
