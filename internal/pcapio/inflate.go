package pcapio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"sync"
)

// inflater decodes gzip (RFC 1952) members of DEFLATE (RFC 1951) data
// — or, for its differential fuzzer, one raw DEFLATE stream — and is
// the io.Reader of the decoded bytes. It is the capture read path's only
// decompressor (DESIGN.md, "Capture read-ahead").
//
// Where compress/flate pulls the input one ReadByte call at a time and
// walks its Huffman tables a few bits at a time, the inflater reads its
// source in large blocks into its own input window, keeps a 64-bit bit
// buffer that one unaligned load refills, and resolves a whole symbol,
// with the count of extra bits that follow it, in one table probe (two
// for codes longer than the root table). Matches are copied eight bytes
// at a time when they reach back at least eight bytes. Output goes into
// a window that keeps the last 32 KiB of history in front of the bytes
// not yet read; it slides back once they are read and the window is
// full.
//
// Its errors follow compress/gzip and compress/flate, class by class: a
// stream that ends early fails with io.ErrUnexpectedEOF once a decode
// step needs a bit the input does not hold, and at the same step as the
// standard library; data that breaks the format, a header gzip refuses
// and a trailer that does not match fail with errors of their own.
// Every byte decoded before an error is read out before it. The rules
// the standard library applies are copied, not only RFC 1951's:
//
//   - a Huffman code must be complete, except that a single code of
//     length one is accepted (its other bit pattern is then corrupt
//     data) and an empty code is accepted until it is used;
//   - a literal/length symbol is looked for only once the input holds as
//     many bits as the longer of the code's shortest length and the
//     end-of-block code's length;
//   - a match may not reach before the start of its member's output;
//   - a gzip file may hold several members, each with its own history
//     and trailer; the input may end cleanly only where a member would
//     begin, and anything else there must be a gzip header;
//   - a header's NUL-terminated name or comment longer than 511 bytes is
//     refused, and an FHCRC field must match the header's CRC-32.
type inflater struct {
	src    io.Reader
	srcErr error // what src returned when it last failed; it is not read again
	// in[ip:iend] is input not yet taken into the bit buffer; inOff is
	// the source offset of in[0].
	in       [inLen]byte
	ip, iend int
	inOff    int64

	// bits holds nb bits of input, least significant first. Above them
	// it may hold some bits of in[ip], exactly as in[ip] has them, or
	// zeros; nothing else.
	bits uint64
	nb   uint

	// win[rpos:wpos] is decoded output not yet read. A match may reach
	// back to hmin, where the current member's output began, and never
	// more than histSize. crcPos is how far the member's CRC-32 and
	// size cover.
	win                      [winLen]byte
	rpos, wpos, hmin, crcPos int
	crc, size                uint32

	gzip   bool // members with gzip framing; false for one raw stream
	state  int
	final  bool // the current block is the stream's last
	stored int  // bytes left to copy in the current stored block
	err    error

	lit, dist *huffTable // the current block's codes
	dynLit    huffTable
	dynDist   huffTable
	codeLen   huffTable
	lens      [maxNumLit + maxNumDist]uint8
}

const (
	// histSize is how far back a DEFLATE match may reach.
	histSize = 32 << 10
	// winFull is where the output window stops taking new symbols: 64
	// KiB of output per fill, behind 32 KiB of history. A symbol started
	// below it writes at most maxMatch bytes and over-copies at most 7,
	// which the rest of the window holds.
	winFull  = histSize + 64<<10
	maxMatch = 258
	winLen   = winFull + maxMatch + 8
	// inLen is the input window: one 64 KiB read of the file plus the
	// few bytes kept from the last one.
	inLen = 64<<10 + fastIn
	// fastIn is the input the fast loop needs in the window: the 8-byte
	// load that refills the bit buffer.
	fastIn = 8

	maxCodeLen = 15
	maxNumLit  = 286
	maxNumDist = 30

	// Root table widths, and table sizes that hold every subtable a
	// complete code can need: a subtable of 2^k entries holds at least
	// k+1 codes, so the 288 literal/length codes need at most 288·32/6
	// entries beyond a 10-bit root, and the 32 distance codes at most
	// 32·128/8 beyond an 8-bit one.
	litRoot    = 10
	distRoot   = 8
	litTabLen  = 1<<litRoot + 1536
	distTabLen = 1<<distRoot + 512
)

// The inflater's states between decode steps.
const (
	stateBlock  = iota // a block header is next
	stateStored        // copying a stored block
	stateHuff          // decoding a Huffman block
	stateEnd           // the final block ended: a gzip trailer, or the end
)

// A table entry is value<<16 | kind<<8 | extra<<4 | length: the code's
// length in bits (0 where no code is), the count of extra bits after it,
// and what it means. A link entry's value is its subtable's offset and
// its extra field the subtable's width; subtable entries carry the
// code's full length.
const (
	kindLit  = iota // value is the byte; for the distance and code-length codes, the base or symbol
	kindLen         // value is the match length's base
	kindEOB         // end of block
	kindLink        // see the subtable
	kindBad         // a symbol the format does not allow, or no code at all
)

const noCode = kindBad << 8

type huffTable struct {
	// min is how many bits compress/flate holds before it looks a
	// symbol up: the shortest code's length, raised to the end-of-block
	// code's for a dynamic literal/length code.
	min  uint
	root uint
	e    []uint32
}

var (
	errGzipHeader   = errors.New("pcapio: invalid gzip header")
	errGzipChecksum = errors.New("pcapio: gzip checksum mismatch")
)

// codeOrder is the order of the code-length code's lengths (RFC 1951,
// 3.2.7).
var codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// The symbol payloads tables are built from, and the fixed codes of RFC
// 1951, 3.2.6.
var (
	litPayload, distPayload, codeLenPayload = payloads()
	fixedLit, fixedDist                     = fixedCodes()
)

func payloads() (lit [288]uint32, dist [32]uint32, codeLen [19]uint32) {
	for s := range 256 {
		lit[s] = uint32(s) << 16
	}
	lit[256] = kindEOB << 8
	// Lengths 3–10 carry no extra bits, then each four codes one more,
	// up to 5; the last code is 258.
	base := uint32(3)
	for s := 257; s < 285; s++ {
		x := uint32(0)
		if s >= 265 {
			x = uint32(s-261) / 4
		}
		lit[s] = base<<16 | kindLen<<8 | x<<4
		base += 1 << x
	}
	lit[285] = 258<<16 | kindLen<<8
	lit[286], lit[287] = kindBad<<8, kindBad<<8
	// Distances 1–4 carry no extra bits, then each two codes one more,
	// up to 13.
	base = 1
	for s := range 30 {
		x := uint32(0)
		if s >= 4 {
			x = uint32(s-2) / 2
		}
		dist[s] = base<<16 | kindLit<<8 | x<<4
		base += 1 << x
	}
	dist[30], dist[31] = kindBad<<8, kindBad<<8
	for s := range codeLen {
		codeLen[s] = uint32(s) << 16
	}
	return
}

func fixedCodes() (lit, dist *huffTable) {
	var l [288]uint8
	for s := range l {
		switch {
		case s < 144:
			l[s] = 8
		case s < 256:
			l[s] = 9
		case s < 280:
			l[s] = 7
		default:
			l[s] = 8
		}
	}
	var d [32]uint8
	for s := range d {
		d[s] = 5
	}
	lit = &huffTable{root: litRoot, e: make([]uint32, litTabLen)}
	dist = &huffTable{root: distRoot, e: make([]uint32, distTabLen)}
	if !lit.build(l[:], litPayload[:]) || !dist.build(d[:], distPayload[:]) {
		panic("pcapio: fixed Huffman codes do not build")
	}
	return lit, dist
}

// build makes t decode the canonical code (RFC 1951, 3.2.2) whose
// lengths lens gives, symbol by symbol, with payload[s] as symbol s's
// entry. It refuses an over-subscribed or incomplete code as
// compress/flate does: a single code of length one and an empty code
// pass, and leave the entries without a code marked noCode.
func (t *huffTable) build(lens []uint8, payload []uint32) bool {
	var count [maxCodeLen + 1]int
	minLen, maxLen := 0, 0
	for _, n := range lens {
		if n == 0 {
			continue
		}
		if minLen == 0 || int(n) < minLen {
			minLen = int(n)
		}
		maxLen = max(maxLen, int(n))
		count[n]++
	}
	root := int(t.root)
	rootSize := 1 << root
	t.min = uint(minLen)
	var next [maxCodeLen + 1]int
	code := 0
	for n := minLen; n <= maxLen && maxLen > 0; n++ {
		code <<= 1
		next[n] = code
		code += count[n]
	}
	switch {
	case maxLen == 0 || code == 1 && maxLen == 1:
		// Empty, or one code of length one: some entries stay without a
		// code.
		for i := range t.e[:rootSize] {
			t.e[i] = noCode
		}
	case code != 1<<maxLen:
		return false
	}
	if maxLen > root {
		// Link each root entry that prefixes a long code to a subtable
		// wide enough for the longest code behind it.
		var width [1 << litRoot]uint8
		nx := next
		for _, n := range lens {
			if int(n) <= root {
				continue
			}
			r := reverse(nx[n], n)
			nx[n]++
			p := r & (rootSize - 1)
			width[p] = max(width[p], n-uint8(root))
		}
		end := rootSize
		for p, w := range width[:rootSize] {
			if w == 0 {
				continue
			}
			if end+1<<w > len(t.e) {
				return false // unreachable for a complete code: see litTabLen
			}
			t.e[p] = uint32(end)<<16 | kindLink<<8 | uint32(w)<<4
			end += 1 << w
		}
	}
	for s, n := range lens {
		if n == 0 {
			continue
		}
		r := reverse(next[n], n)
		next[n]++
		ent := payload[s] | uint32(n)
		if int(n) <= root {
			for j := r; j < rootSize; j += 1 << n {
				t.e[j] = ent
			}
			continue
		}
		link := t.e[r&(rootSize-1)]
		sub := t.e[link>>16 : link>>16+1<<(link>>4&15)]
		for j := r >> root; j < len(sub); j += 1 << (int(n) - root) {
			sub[j] = ent
		}
	}
	return true
}

// reverse returns code's n bits in stream order, the order a table is
// indexed in.
func reverse(code int, n uint8) int {
	return int(bits.Reverse16(uint16(code)) >> (16 - n))
}

var inflaterPool = sync.Pool{New: func() any { return newInflater() }}

func newInflater() *inflater {
	d := new(inflater)
	d.dynLit = huffTable{root: litRoot, e: make([]uint32, litTabLen)}
	d.dynDist = huffTable{root: distRoot, e: make([]uint32, distTabLen)}
	d.codeLen = huffTable{root: 7, e: make([]uint32, 1<<7)}
	return d
}

// reset starts d on src: a gzip file when gzip is set, whose first
// member header it reads, or else one raw DEFLATE stream. An error is
// the header's, and also what Read returns.
func (d *inflater) reset(src io.Reader, gzip bool) error {
	d.src, d.srcErr = src, nil
	d.ip, d.iend, d.inOff = 0, 0, 0
	d.bits, d.nb = 0, 0
	d.rpos, d.wpos = 0, 0
	d.gzip, d.state, d.final, d.stored, d.err = gzip, stateBlock, false, 0, nil
	d.member()
	if gzip {
		d.err = d.gzipHeader()
	}
	return d.err
}

// member starts a member's history and checksum at the current output.
func (d *inflater) member() {
	d.hmin, d.crcPos = d.wpos, d.wpos
	d.crc, d.size = 0, 0
}

// Read returns decoded bytes. An error, io.EOF at the clean end of the
// input included, comes once every byte decoded before it is read.
func (d *inflater) Read(p []byte) (int, error) {
	for d.rpos == d.wpos {
		if d.err != nil {
			return 0, d.err
		}
		d.decode()
	}
	n := copy(p, d.win[d.rpos:d.wpos])
	d.rpos += n
	return n, nil
}

// decode fills the output window, from wpos up to winFull, or until the
// input ends or fails. The caller has read all the output before it.
func (d *inflater) decode() {
	if d.wpos >= winFull {
		shift := d.wpos - histSize
		copy(d.win[:histSize], d.win[shift:d.wpos])
		d.wpos, d.rpos, d.crcPos = histSize, histSize, histSize
		d.hmin = max(d.hmin-shift, 0)
	}
	for d.err == nil && d.wpos < winFull {
		switch d.state {
		case stateBlock:
			d.err = d.blockHeader()
		case stateStored:
			d.err = d.copyStored()
		case stateHuff:
			d.err = d.huffman()
		case stateEnd:
			d.err = d.endMember()
		}
	}
	d.sum()
}

// sum brings the member's CRC-32 and size up to the decoded output.
func (d *inflater) sum() {
	d.crc = crc32.Update(d.crc, crc32.IEEETable, d.win[d.crcPos:d.wpos])
	d.size += uint32(d.wpos - d.crcPos)
	d.crcPos = d.wpos
}

// fill moves the input not yet taken to the front of the input window
// and reads the source until the window holds at least fastIn bytes or
// the source fails.
func (d *inflater) fill() {
	if d.srcErr != nil {
		return
	}
	d.inOff += int64(d.ip)
	d.iend = copy(d.in[:], d.in[d.ip:d.iend])
	d.ip = 0
	for empty := 0; d.iend < fastIn; {
		n, err := d.src.Read(d.in[d.iend:])
		d.iend += n
		if err != nil {
			d.srcErr = err
			return
		}
		if n > 0 {
			empty = 0
		} else if empty++; empty == 100 { // as bufio gives up
			d.srcErr = io.ErrNoProgress
			return
		}
	}
}

// inputErr is the error of a decode step the input ended under.
func (d *inflater) inputErr() error {
	if d.srcErr == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return d.srcErr
}

// corrupt reports DEFLATE data that breaks the format, with the input
// offset the decoder had read up to.
func (d *inflater) corrupt() error {
	return fmt.Errorf("pcapio: corrupt deflate data before offset %d", d.inOff+int64(d.ip)-int64(d.nb/8))
}

// need makes the bit buffer hold at least n ≤ 32 bits, and reports
// false when the input ends first.
func (d *inflater) need(n uint) bool {
	for d.nb < n {
		if d.iend-d.ip < fastIn {
			d.fill()
		}
		if d.iend-d.ip >= fastIn {
			d.refill()
			return true
		}
		if d.ip == d.iend {
			return false
		}
		d.bits |= uint64(d.in[d.ip]) << d.nb
		d.ip++
		d.nb += 8
	}
	return true
}

// refill loads as many whole bytes as the bit buffer has room for from
// the 8 bytes at ip: nb becomes 56 to 63, and the bits above nb are the
// next byte's low bits.
func (d *inflater) refill() {
	d.bits |= binary.LittleEndian.Uint64(d.in[d.ip:]) << d.nb
	d.ip += int(63-d.nb) >> 3
	d.nb |= 56
}

// take consumes n ≤ nb bits and returns them.
func (d *inflater) take(n uint) uint32 {
	v := uint32(d.bits & (1<<n - 1))
	d.bits >>= n
	d.nb -= n
	return v
}

// byte consumes one byte of input at a byte boundary.
func (d *inflater) byte() (byte, error) {
	if d.nb >= 8 {
		return byte(d.take(8)), nil
	}
	// nb is 0: any bits above it are the byte about to be taken.
	d.bits = 0
	if d.ip == d.iend {
		d.fill()
		if d.ip == d.iend {
			return 0, d.srcErr
		}
	}
	c := d.in[d.ip]
	d.ip++
	return c, nil
}

// align drops the bits left of a partly consumed byte.
func (d *inflater) align() {
	d.bits >>= d.nb & 7
	d.nb &^= 7
}

// sym decodes one symbol of t the way compress/flate's huffSym does: it
// needs t.min bits before it looks, it fails with io.ErrUnexpectedEOF
// only when the input ends inside the code, and where no code is (an
// empty code, or the missing half of a one-bit one) it fails as corrupt
// without needing more.
func (d *inflater) sym(t *huffTable) (uint32, error) {
	if !d.need(t.min) {
		return 0, d.inputErr()
	}
	d.need(maxCodeLen) // as much of the longest code as the input holds
	v := d.bits & (1<<d.nb - 1)
	e := t.e[v&(1<<t.root-1)]
	if e>>8&7 == kindLink {
		e = t.e[e>>16+uint32(v>>t.root)&(1<<(e>>4&15)-1)]
	}
	n := uint(e & 15)
	switch {
	case n == 0:
		return 0, d.corrupt()
	case n > d.nb:
		return 0, d.inputErr()
	}
	d.take(n)
	return e, nil
}

// blockHeader reads a block header and, for a dynamic block, its codes.
func (d *inflater) blockHeader() error {
	if !d.need(3) {
		return d.inputErr()
	}
	h := d.take(3)
	d.final = h&1 == 1
	switch h >> 1 {
	case 0:
		d.align()
		if !d.need(32) {
			return d.inputErr()
		}
		n := d.take(16)
		if d.take(16) != n^0xffff {
			return d.corrupt()
		}
		d.stored = int(n)
		d.state = stateStored
	case 1:
		d.lit, d.dist = fixedLit, fixedDist
		d.state = stateHuff
	case 2:
		if err := d.dynamicCodes(); err != nil {
			return err
		}
		d.lit, d.dist = &d.dynLit, &d.dynDist
		d.state = stateHuff
	default:
		return d.corrupt()
	}
	return nil
}

// dynamicCodes reads a dynamic block's code lengths (RFC 1951, 3.2.7)
// and builds its literal/length and distance tables.
func (d *inflater) dynamicCodes() error {
	if !d.need(14) {
		return d.inputErr()
	}
	nlit := int(d.bits&31) + 257
	ndist := int(d.bits>>5&31) + 1
	if nlit > maxNumLit || ndist > maxNumDist {
		return d.corrupt()
	}
	nclen := int(d.bits>>10&15) + 4
	d.take(14)
	var clens [19]uint8
	for _, s := range codeOrder[:nclen] {
		if !d.need(3) {
			return d.inputErr()
		}
		clens[s] = uint8(d.take(3))
	}
	if !d.codeLen.build(clens[:], codeLenPayload[:]) {
		return d.corrupt()
	}
	lens := d.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		e, err := d.sym(&d.codeLen)
		if err != nil {
			return err
		}
		x := uint8(e >> 16)
		if x < 16 {
			lens[i] = x
			i++
			continue
		}
		// A run: of the last length (16) or of zeros (17, 18).
		rep, nb, v := 3, uint(2), uint8(0)
		switch x {
		case 16:
			if i == 0 {
				return d.corrupt()
			}
			v = lens[i-1]
		case 17:
			nb = 3
		default:
			rep, nb = 11, 7
		}
		if !d.need(nb) {
			return d.inputErr()
		}
		rep += int(d.take(nb))
		if i+rep > len(lens) {
			return d.corrupt()
		}
		for range rep {
			lens[i] = v
			i++
		}
	}
	if !d.dynLit.build(lens[:nlit], litPayload[:]) || !d.dynDist.build(lens[nlit:], distPayload[:]) {
		return d.corrupt()
	}
	d.dynLit.min = max(d.dynLit.min, uint(lens[256]))
	return nil
}

// endBlock moves past a block whose data has all been decoded.
func (d *inflater) endBlock() {
	d.state = stateBlock
	if d.final {
		d.state = stateEnd
	}
}

// copyStored copies the stored block's bytes that fit the window.
func (d *inflater) copyStored() error {
	for d.stored > 0 && d.wpos < winFull {
		if d.nb >= 8 {
			d.win[d.wpos] = byte(d.take(8))
			d.wpos++
			d.stored--
			continue
		}
		d.bits = 0 // as in byte: nothing of the bit buffer is left
		if d.ip == d.iend {
			d.fill()
			if d.ip == d.iend {
				return d.inputErr()
			}
		}
		n := copy(d.win[d.wpos:winFull], d.in[d.ip:min(d.iend, d.ip+d.stored)])
		d.ip += n
		d.wpos += n
		d.stored -= n
	}
	if d.stored == 0 {
		d.endBlock()
	}
	return nil
}

// endMember ends the stream, or for gzip checks the member's trailer and
// reads the next member's header.
func (d *inflater) endMember() error {
	if !d.gzip {
		return io.EOF
	}
	d.sum()
	d.align()
	var t [8]byte
	for i := range t {
		c, err := d.byte()
		if err != nil {
			return noEOF(err)
		}
		t[i] = c
	}
	if binary.LittleEndian.Uint32(t[:4]) != d.crc || binary.LittleEndian.Uint32(t[4:]) != d.size {
		return errGzipChecksum
	}
	if err := d.gzipHeader(); err != nil {
		return err // io.EOF when no member follows
	}
	d.state = stateBlock
	return nil
}

// gzipHeader reads a member header (RFC 1952, 2.3) as compress/gzip
// does: io.EOF when the input ends before it starts, and the member's
// history and checksum start after it.
func (d *inflater) gzipHeader() error {
	var h [10]byte
	for i := range h {
		c, err := d.byte()
		if err != nil {
			if i == 0 {
				return err
			}
			return noEOF(err)
		}
		h[i] = c
	}
	if h[0] != 0x1f || h[1] != 0x8b || h[2] != 8 {
		return errGzipHeader
	}
	flg := h[3]
	digest := crc32.ChecksumIEEE(h[:])
	// next reads one header byte into the header's CRC-32, updated as
	// crc32.Update does, a byte at a time.
	next := func() (byte, error) {
		c, err := d.byte()
		if err != nil {
			return 0, noEOF(err)
		}
		digest = ^(crc32.IEEETable[byte(^digest)^c] ^ ^digest>>8)
		return c, nil
	}
	if flg&0x04 != 0 { // FEXTRA
		var n int
		for i := range 2 {
			c, err := next()
			if err != nil {
				return err
			}
			n |= int(c) << (8 * i)
		}
		for range n {
			if _, err := next(); err != nil {
				return err
			}
		}
	}
	for _, f := range []byte{0x08, 0x10} { // FNAME, FCOMMENT
		if flg&f == 0 {
			continue
		}
		for i := 0; ; i++ {
			if i == 512 {
				return errGzipHeader
			}
			c, err := next()
			if err != nil {
				return err
			}
			if c == 0 {
				break
			}
		}
	}
	if flg&0x02 != 0 { // FHCRC
		want := uint16(digest)
		var got uint16
		for i := range 2 {
			c, err := d.byte()
			if err != nil {
				return noEOF(err)
			}
			got |= uint16(c) << (8 * i)
		}
		if got != want {
			return errGzipHeader
		}
	}
	d.member()
	return nil
}

func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// huffman decodes the current Huffman block until it ends, the output
// window is full or a step fails. While the input window holds fastIn
// bytes the fast loop runs; the last few bytes of the input, and any symbol
// the fast loop does not take, go through step.
func (d *inflater) huffman() error {
	for d.state == stateHuff && d.wpos < winFull {
		if d.iend-d.ip < fastIn {
			d.fill()
		}
		if d.iend-d.ip >= fastIn && d.fast() {
			continue
		}
		if err := d.step(); err != nil {
			return err
		}
	}
	return nil
}

// step decodes one literal, match or end of block with compress/flate's
// rules for where the input may end and what is corrupt.
func (d *inflater) step() error {
	e, err := d.sym(d.lit)
	if err != nil {
		return err
	}
	switch e >> 8 & 7 {
	case kindLit:
		d.win[d.wpos] = byte(e >> 16)
		d.wpos++
		return nil
	case kindEOB:
		d.endBlock()
		return nil
	case kindBad:
		return d.corrupt()
	}
	length := int(e >> 16)
	if x := uint(e >> 4 & 15); x > 0 {
		if !d.need(x) {
			return d.inputErr()
		}
		length += int(d.take(x))
	}
	e, err = d.sym(d.dist)
	if err != nil {
		return err
	}
	if e>>8&7 == kindBad {
		return d.corrupt()
	}
	dist := int(e >> 16)
	if x := uint(e >> 4 & 15); x > 0 {
		if !d.need(x) {
			return d.inputErr()
		}
		dist += int(d.take(x))
	}
	if dist > d.wpos-d.hmin {
		return d.corrupt()
	}
	for i := range length {
		d.win[d.wpos+i] = d.win[d.wpos-dist+i]
	}
	d.wpos += length
	return nil
}

// fast decodes symbols while the input window holds fastIn bytes and
// the output window has room. One refill of the bit buffer covers a
// whole literal or match: at least 56 bits, where a length code, its
// extra bits, a distance code and its extra bits take at most 48. It
// returns false, with nothing of the symbol consumed, at a symbol step
// must take: no code, a symbol the format does not allow, or a match
// that reaches before the member's output.
func (d *inflater) fast() bool {
	bits, nb, ip, wpos := d.bits, d.nb, d.ip, d.wpos
	in := d.in[:d.iend]
	win := &d.win
	lt := (*[litTabLen]uint32)(d.lit.e)
	dt := (*[distTabLen]uint32)(d.dist.e)
	ok := true
	for wpos < winFull && ip <= len(in)-fastIn {
		bits |= binary.LittleEndian.Uint64(in[ip:]) << nb
		ip += int(63-nb) >> 3
		nb |= 56
		e := lt[bits&(1<<litRoot-1)]
		if e>>8&7 == kindLink {
			e = lt[e>>16+uint32(bits>>litRoot)&(1<<(e>>4&15)-1)]
		}
		kind := e >> 8 & 7
		if kind == kindLit {
			win[wpos] = byte(e >> 16)
			wpos++
			bits >>= e & 15
			nb -= uint(e & 15)
			continue
		}
		if kind != kindLen {
			if kind == kindEOB {
				bits >>= e & 15
				nb -= uint(e & 15)
				d.endBlock()
			} else {
				ok = false
			}
			break
		}
		b := bits >> (e & 15)
		x := e >> 4 & 15
		length := int(e>>16) + int(b&(1<<x-1))
		b >>= x
		used := uint(e&15 + x)
		e = dt[b&(1<<distRoot-1)]
		if e>>8&7 == kindLink {
			e = dt[e>>16+uint32(b>>distRoot)&(1<<(e>>4&15)-1)]
		}
		if e>>8&7 != kindLit {
			ok = false
			break
		}
		b >>= e & 15
		x = e >> 4 & 15
		dist := int(e>>16) + int(b&(1<<x-1))
		if dist > wpos-d.hmin {
			ok = false
			break
		}
		bits = b >> x
		nb -= used + uint(e&15+x)
		from := wpos - dist
		switch {
		case dist >= 8:
			for i := 0; i < length; i += 8 {
				binary.LittleEndian.PutUint64(win[wpos+i:], binary.LittleEndian.Uint64(win[from+i:]))
			}
		case dist == 1:
			v := uint64(win[from]) * 0x0101010101010101
			for i := 0; i < length; i += 8 {
				binary.LittleEndian.PutUint64(win[wpos+i:], v)
			}
		default:
			for i := range length {
				win[wpos+i] = win[from+i]
			}
		}
		wpos += length
	}
	d.bits, d.nb, d.ip, d.wpos = bits, nb, ip, wpos
	return ok
}
