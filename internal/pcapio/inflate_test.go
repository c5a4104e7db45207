package pcapio

import (
	"bufio"
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"exiot/internal/allocbudget"
	"exiot/internal/packet"
	"exiot/internal/simnet"
)

// bitWriter writes a DEFLATE bit stream, least significant bit first,
// for seeds no encoder writes.
type bitWriter struct {
	out []byte
	acc uint64
	n   uint
}

func (w *bitWriter) bits(v int, n uint) {
	w.acc |= uint64(v) << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
}

// code writes a Huffman code of n bits, most significant bit first.
func (w *bitWriter) code(c int, n uint) { w.bits(reverse(c, uint8(n)), n) }

func (w *bitWriter) bytes() []byte {
	if w.n > 0 {
		w.bits(0, 8-w.n)
	}
	return w.out
}

// fixedLit writes literal/length symbol s in the fixed code.
func (w *bitWriter) fixedLit(s int) {
	switch {
	case s < 144:
		w.code(0x30+s, 8)
	case s < 256:
		w.code(0x190+s-144, 9)
	case s < 280:
		w.code(s-256, 7)
	default:
		w.code(0xc0+s-280, 8)
	}
}

// canonical returns the canonical code of each symbol with a length.
func canonical(lens []uint8) []int {
	var count, next [16]int
	for _, n := range lens {
		count[n]++
	}
	count[0] = 0
	for n, code := 1, 0; n < 16; n++ {
		code = (code + count[n-1]) << 1
		next[n] = code
	}
	codes := make([]int, len(lens))
	for s, n := range lens {
		if n > 0 {
			codes[s] = next[n]
			next[n]++
		}
	}
	return codes
}

// dynamicHeader writes a dynamic block header for the literal/length
// and distance code lengths lit and dist, each length sent as a 4-bit
// code of the code-length code that gives 0–15 length 4. It returns the
// two codes.
func (w *bitWriter) dynamicHeader(final bool, lit, dist []uint8) (litCodes, distCodes []int) {
	w.bits(map[bool]int{false: 0, true: 1}[final], 1)
	w.bits(2, 2)
	w.bits(len(lit)-257, 5)
	w.bits(len(dist)-1, 5)
	w.bits(19-4, 4)
	for _, s := range codeOrder {
		w.bits(map[bool]int{false: 0, true: 4}[s < 16], 3)
	}
	for _, n := range append(append([]uint8(nil), lit...), dist...) {
		w.code(int(n), 4)
	}
	return canonical(lit), canonical(dist)
}

// fourCodes is a literal/length code of four 2-bit codes — 'a', end of
// block, length 3 and length 4 — with the given length for the fourth.
func fourCodes(fourth uint8) []uint8 {
	lit := make([]uint8, 259)
	lit['a'], lit[256], lit[257], lit[258] = 2, 2, 2, fourth
	return lit
}

// gzipMember frames deflated, the raw DEFLATE encoding of plain, as one
// gzip member with the given header flags and fields.
func gzipMember(flg byte, extra []byte, name, comment string, deflated, plain []byte) []byte {
	h := []byte{0x1f, 0x8b, 8, flg, 0, 0, 0, 0, 0, 255}
	if flg&0x04 != 0 {
		h = binary.LittleEndian.AppendUint16(h, uint16(len(extra)))
		h = append(h, extra...)
	}
	if flg&0x08 != 0 {
		h = append(append(h, name...), 0)
	}
	if flg&0x10 != 0 {
		h = append(append(h, comment...), 0)
	}
	if flg&0x02 != 0 {
		h = binary.LittleEndian.AppendUint16(h, uint16(crc32.ChecksumIEEE(h)))
	}
	h = append(h, deflated...)
	h = binary.LittleEndian.AppendUint32(h, crc32.ChecksumIEEE(plain))
	return binary.LittleEndian.AppendUint32(h, uint32(len(plain)))
}

func deflate(t testing.TB, level int, plain []byte) []byte {
	var b bytes.Buffer
	zw, err := flate.NewWriter(&b, level)
	if err != nil {
		t.Fatal(err)
	}
	zw.Write(plain)
	zw.Close()
	return b.Bytes()
}

func gzipped(t testing.TB, level int, plain []byte) []byte {
	var b bytes.Buffer
	zw, err := gzip.NewWriterLevel(&b, level)
	if err != nil {
		t.Fatal(err)
	}
	zw.Write(plain)
	zw.Close()
	return b.Bytes()
}

// inflateSeed is one input of FuzzInflate's committed corpus.
type inflateSeed struct {
	name string
	data []byte
	gzip bool
}

// inflateSeeds builds the corpus: every block type at every level, and
// the inputs where the standard library's rules go beyond RFC 1951.
func inflateSeeds(t testing.TB) []inflateSeed {
	r := rand.New(rand.NewSource(52))
	var capture bytes.Buffer
	pw, _ := NewWriter(&capture)
	base := time.Date(2021, 6, 1, 12, 0, 0, 0, time.UTC)
	for i := range 300 {
		p := randomPacket(r, base.Add(time.Duration(i)*time.Millisecond))
		pw.WritePacket(&p)
	}
	pw.Flush()
	noise := make([]byte, 3000)
	r.Read(noise)
	plain := append(capture.Bytes(), noise...)
	plain = append(plain, strings.Repeat("telescope ", 400)...)

	var seeds []inflateSeed
	add := func(name string, gz bool, data []byte) {
		seeds = append(seeds, inflateSeed{name, data, gz})
	}
	// Stored (0), Huffman-only (-2) and dynamic blocks, raw and gzip.
	for level := -2; level <= 9; level++ {
		add("level"+strconv.Itoa(level), false, deflate(t, level, plain))
		add("gzip-level"+strconv.Itoa(level), true, gzipped(t, level, plain))
	}
	// Stored blocks longer than the history, and output that slides the
	// window.
	long := bytes.Repeat(plain, 2)
	add("stored-long", false, deflate(t, 0, long))
	add("gzip-stored-long", true, gzipped(t, 0, long))
	add("gzip-long", true, gzipped(t, 1, []byte(strings.Repeat("telescope hour ", 8000))))
	add("empty-gzip", true, gzipped(t, 6, nil))
	add("empty-raw", false, deflate(t, 6, nil))

	// Fixed blocks: "ab", a length-4 match at distance 2, the end.
	var w bitWriter
	w.bits(1, 1)
	w.bits(1, 2)
	w.fixedLit('a')
	w.fixedLit('b')
	w.fixedLit(258)
	w.code(1, 5)
	w.fixedLit(256)
	fixed := w.bytes()
	add("fixed", false, fixed)
	add("fixed-gzip", true, gzipMember(0, nil, "", "", fixed, []byte("ababab")))
	// A distance of 2 after one byte reaches before the output.
	w = bitWriter{}
	w.bits(1, 1)
	w.bits(1, 2)
	w.fixedLit('a')
	w.fixedLit(257)
	w.code(1, 5)
	w.fixedLit(256)
	add("fixed-too-far", false, w.bytes())
	// Symbols the fixed code has but the format refuses.
	for _, bad := range []struct {
		name    string
		lit, ds int
	}{{"fixed-lit-286", 286, 0}, {"fixed-dist-30", 257, 30}} {
		w = bitWriter{}
		w.bits(1, 1)
		w.bits(1, 2)
		w.fixedLit('a')
		w.fixedLit(bad.lit)
		w.code(bad.ds, 5)
		w.fixedLit(256)
		add(bad.name, false, w.bytes())
	}

	// A single distance code of length 1: 'a', a length-3 match at
	// distance 1, the end; then the same with the code's missing half.
	for _, dbit := range []int{0, 1} {
		w = bitWriter{}
		lc, _ := w.dynamicHeader(true, fourCodes(2), []uint8{1})
		w.code(lc['a'], 2)
		w.code(lc[257], 2)
		w.bits(dbit, 1)
		w.code(lc[256], 2)
		add("one-distance-code-"+strconv.Itoa(dbit), false, w.bytes())
	}
	// An empty distance code used by a match.
	w = bitWriter{}
	lc, _ := w.dynamicHeader(true, fourCodes(2), []uint8{0})
	w.code(lc['a'], 2)
	w.code(lc[257], 2)
	w.code(lc[256], 2)
	add("empty-distance-code", false, w.bytes())
	// Incomplete (three 2-bit codes) and over-subscribed (a fifth 2-bit
	// code) literal/length codes.
	w = bitWriter{}
	w.dynamicHeader(true, fourCodes(0), []uint8{1})
	add("incomplete-code", false, w.bytes())
	over := fourCodes(2)
	over['b'] = 2
	w = bitWriter{}
	w.dynamicHeader(true, over, []uint8{1})
	add("oversubscribed-code", false, w.bytes())
	// An end-of-block code longer than a literal's: 'a' is one 0 bit, so
	// the padding after the last whole code reads as more of them, but
	// the input must hold as many bits as the end-of-block code before a
	// symbol is looked for.
	eob := make([]uint8, 257)
	eob['a'], eob['b'], eob['c'], eob[256] = 1, 2, 3, 3
	for _, end := range []bool{true, false} {
		w = bitWriter{}
		lc, _ = w.dynamicHeader(true, eob, []uint8{1})
		for _, c := range "abacab" {
			w.code(lc[c], uint(eob[c]))
		}
		if end {
			w.code(lc[256], 3)
		}
		add("long-eob-"+strconv.FormatBool(end), false, w.bytes())
	}

	// Multi-member files, a second member reaching into the first, and
	// trailing garbage after a member: at least a header's worth, and
	// less.
	one := gzipped(t, 6, []byte("first member "))
	two := gzipped(t, 1, plain[:2000])
	add("two-members", true, append(append([]byte(nil), one...), two...))
	add("member-garbage", true, append(append([]byte(nil), one...), "not a gzip header"...))
	add("member-short-garbage", true, append(append([]byte(nil), one...), "xyz"...))
	w = bitWriter{}
	w.bits(1, 1)
	w.bits(1, 2)
	w.fixedLit(257)
	w.code(0, 5)
	w.fixedLit(256)
	add("member-reaches-back", true, append(append([]byte(nil), one...), gzipMember(0, nil, "", "", w.bytes(), []byte("   "))...))
	flipped := append([]byte(nil), two...)
	flipped[len(flipped)-6] ^= 1
	add("crc-mismatch", true, flipped)
	sized := append([]byte(nil), two...)
	sized[len(sized)-2] ^= 1
	add("size-mismatch", true, sized)

	// Header fields: FEXTRA, FNAME, FCOMMENT and FHCRC, names of 511 and
	// 512 bytes, and a wrong header CRC.
	body, short := deflate(t, 6, plain[:500]), plain[:500]
	add("fextra", true, gzipMember(0x04, []byte("extra field"), "", "", body, short))
	add("fname-fcomment", true, gzipMember(0x18, nil, "hour.pcap", "a comment", body, short))
	add("fhcrc", true, gzipMember(0x1e, []byte{1, 2, 3}, "hour.pcap", "c", body, short))
	add("fname-511", true, gzipMember(0x08, nil, strings.Repeat("n", 511), "", body, short))
	add("fname-512", true, gzipMember(0x08, nil, strings.Repeat("n", 512), "", body, short))
	badHCRC := gzipMember(0x0a, nil, "x", "", body, short)
	badHCRC[12] ^= 1
	add("fhcrc-mismatch", true, badHCRC)
	add("bad-method", true, append([]byte{0x1f, 0x8b, 7}, one[3:]...))
	add("header-torn", true, one[:7])
	return seeds
}

// readLimit reads r until it fails or n bytes are out, in reads of 64
// KiB and of 1500 bytes by turns.
func readLimit(r io.Reader, n int) ([]byte, error) {
	var out []byte
	buf := make([]byte, 64<<10)
	for i := 0; len(out) < n; i++ {
		size := len(buf)
		if i%2 == 1 {
			size = 1500
		}
		m, err := r.Read(buf[:min(size, n-len(out))])
		out = append(out, buf[:m]...)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// FuzzInflate holds the inflater to compress/flate on raw DEFLATE and
// to compress/gzip on gzip files: over any bytes, fed in any chunking,
// both open alike, return the same bytes, and then the same class of
// error, so that every byte decoded before an error comes out first.
func FuzzInflate(f *testing.F) {
	for _, s := range inflateSeeds(f) {
		f.Add(s.data, s.gzip, uint16(0))
		f.Add(s.data, s.gzip, uint16(3))
	}
	f.Fuzz(func(t *testing.T, data []byte, gz bool, chunk uint16) {
		var src io.Reader = bytes.NewReader(data)
		if chunk != 0 {
			src = &chunkReader{data: data, n: int(chunk)}
		}
		d := inflaterPool.Get().(*inflater)
		defer inflaterPool.Put(d)
		gotErr := d.reset(src, gz)
		var ref io.Reader
		var wantErr error
		if gz {
			ref, wantErr = gzip.NewReader(bytes.NewReader(data))
		} else {
			ref = flate.NewReader(bytes.NewReader(data))
		}
		if errClass(gotErr) != errClass(wantErr) {
			t.Fatalf("open: %v, reference %v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		// DEFLATE's ratio is at most 1032:1, so both end before this.
		n := 1032*len(data) + 1
		got, gotErr := readLimit(d, n)
		want, wantErr := readLimit(ref, n)
		if !bytes.Equal(got, want) {
			at := 0
			for at < min(len(got), len(want)) && got[at] == want[at] {
				at++
			}
			t.Fatalf("%d bytes, reference %d; first difference at %d (errors %v, reference %v)", len(got), len(want), at, gotErr, wantErr)
		}
		if errClass(gotErr) != errClass(wantErr) {
			t.Fatalf("after %d bytes: %v, reference %v", len(got), gotErr, wantErr)
		}
	})
}

// simnetHour writes one hour of a simnet world's telescope traffic with
// CreateHour and returns the file's bytes and the decoded stream's.
func simnetHour(tb testing.TB) (file, plain []byte) {
	cfg := simnet.DefaultConfig(2021)
	cfg.NumInfected, cfg.NumNonIoT, cfg.NumMisconfig, cfg.NumBackscat = 75, 12, 400, 100
	cfg.MaxPacketsPerHostHour = 1000
	w := simnet.NewWorld(cfg)
	hour := w.Start().Add(9 * time.Hour)
	pkts := w.GenerateHour(hour)
	dir := tb.TempDir()
	hw, err := CreateHour(dir, hour)
	if err != nil {
		tb.Fatal(err)
	}
	for i := range pkts {
		if err := hw.WritePacket(&pkts[i]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := hw.Close(); err != nil {
		tb.Fatal(err)
	}
	if file, err = os.ReadFile(filepath.Join(dir, HourFileName(hour))); err != nil {
		tb.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(file))
	if err != nil {
		tb.Fatal(err)
	}
	if plain, err = io.ReadAll(zr); err != nil {
		tb.Fatal(err)
	}
	return file, plain
}

// BenchmarkInflate reports MB/s of decoded output for the inflater and
// for compress/gzip over a bufio.Reader, the read path it replaced: on
// one telescope hour written by CreateHour, and on a gzip file of each
// block type.
func BenchmarkInflate(b *testing.B) {
	hour, hourPlain := simnetHour(b)
	type file struct {
		name string
		data []byte
	}
	corpus := []file{{"hour", hour}}
	for _, c := range []struct {
		name  string
		level int
	}{{"stored", gzip.NoCompression}, {"huffman", gzip.HuffmanOnly}, {"fast", gzip.BestSpeed}, {"dynamic", gzip.DefaultCompression}} {
		corpus = append(corpus, file{c.name, gzipped(b, c.level, hourPlain)})
	}
	// Fixed blocks: the standard library writes them only for short
	// blocks, so flush every 64 bytes.
	var fz bytes.Buffer
	zw := gzip.NewWriter(&fz)
	for i := 0; i < len(hourPlain); i += 64 {
		zw.Write(hourPlain[i:min(i+64, len(hourPlain))])
		zw.Flush()
	}
	zw.Close()
	corpus = append(corpus, file{"fixed", fz.Bytes()})

	out := make([]byte, readAheadBlock)
	drain := func(b *testing.B, r io.Reader) {
		for {
			if _, err := r.Read(out); err == io.EOF {
				return
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, c := range corpus {
		b.Run(c.name+"/pcapio", func(b *testing.B) {
			b.SetBytes(int64(len(hourPlain)))
			d := newInflater()
			b.ResetTimer()
			for range b.N {
				if err := d.reset(bytes.NewReader(c.data), true); err != nil {
					b.Fatal(err)
				}
				drain(b, d)
			}
		})
		b.Run(c.name+"/stdlib", func(b *testing.B) {
			b.SetBytes(int64(len(hourPlain)))
			zr := new(gzip.Reader)
			br := bufio.NewReaderSize(nil, bufSize)
			b.ResetTimer()
			for range b.N {
				br.Reset(bytes.NewReader(c.data))
				if err := zr.Reset(br); err != nil {
					b.Fatal(err)
				}
				drain(b, zr)
			}
		})
	}
}

// TestOpenCaptureAllocates holds a pooled open, drain and close of a
// small gzip capture to what it cost with compress/gzip's pooled reader:
// 21 allocations and 1,400 bytes.
func TestOpenCaptureAllocates(t *testing.T) {
	dir := t.TempDir()
	hour := time.Date(2021, 6, 1, 12, 0, 0, 0, time.UTC)
	hw, err := CreateHour(dir, hour)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for i := range 200 {
		p := randomPacket(r, hour.Add(time.Duration(i)*time.Second))
		hw.WritePacket(&p)
	}
	if err := hw.Close(); err != nil {
		t.Fatal(err)
	}
	op := func() {
		hr, err := OpenHour(dir, hour)
		if err != nil {
			t.Fatal(err)
		}
		var p packet.Packet
		for hr.Next(&p) == nil {
		}
		if err := hr.Close(); err != nil {
			t.Fatal(err)
		}
	}
	allocbudget.Check(t, 50, [2]float64{21, 21}, op)
	// A collection during the count would empty the pools, and the next
	// open would allocate a 64 KiB buffer the steady state never does.
	// With one P, the read-ahead goroutine's pool Gets and the reader's
	// Puts use the same per-P cache, so no Get misses a pooled item.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	op()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 50
	for range runs {
		op()
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f B/op", perOp)
	if perOp > 1400 {
		t.Errorf("%.0f B allocated per open, drain and close, over 1400", perOp)
	}
}
