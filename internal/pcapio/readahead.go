package pcapio

import (
	"io"
	"sync"
)

// The read-ahead ring: readAheadBlocks blocks of readAheadBlock bytes of
// decoded capture stream per open HourReader, at most — one being
// filled, one being consumed, the rest queued between them. A block is
// ~4.6 k telescope packets, so the hand-over costs one channel
// operation per few thousand packets; a per-packet or per-batch hop
// between goroutines costs more than the decode it would overlap
// (DESIGN.md, "Capture read-ahead"). The ring is a constant: it bounds
// memory, it is not a tuning knob and it does not follow Workers.
const (
	readAheadBlock  = 256 << 10
	readAheadBlocks = 16
)

var blockPool = sync.Pool{New: func() any { return new([readAheadBlock]byte) }}

// block is one hand-over: buf[:n] is stream data, and err, when set, is
// what the source returned right after it — the goroutine's last block.
type block struct {
	buf *[readAheadBlock]byte
	n   int
	err error
}

// readAhead runs src.Read on its own goroutine, ahead of the consumer,
// and is the io.Reader the consumer reads the same bytes from. Read and
// stop belong to the consumer's goroutine.
type readAhead struct {
	blocks chan block // closed when the goroutine exits
	quit   chan struct{}

	cur block // the block Read is copying out of
	off int
}

func startReadAhead(src io.Reader) *readAhead {
	ra := &readAhead{
		// Two of the ring's blocks are outside the queue: the one being
		// filled and the one being consumed.
		blocks: make(chan block, readAheadBlocks-2),
		quit:   make(chan struct{}),
	}
	go ra.fill(src)
	return ra
}

// fill reads src in whole blocks until it fails or stop is called. The
// error travels with the last bytes read before it, so the consumer sees
// it only after every byte that preceded it.
func (ra *readAhead) fill(src io.Reader) {
	defer close(ra.blocks)
	for {
		b := block{buf: blockPool.Get().(*[readAheadBlock]byte)}
		for b.n < len(b.buf) && b.err == nil {
			select {
			case <-ra.quit:
				blockPool.Put(b.buf)
				return
			default:
			}
			var m int
			m, b.err = src.Read(b.buf[b.n:])
			b.n += m
		}
		select {
		case ra.blocks <- b:
		case <-ra.quit:
			blockPool.Put(b.buf)
			return
		}
		if b.err != nil {
			return
		}
	}
}

// Read copies out of the current block, waiting for the next one when it
// is used up. The source's error is returned once the bytes before it
// are, and on every call after.
func (ra *readAhead) Read(p []byte) (int, error) {
	for ra.off == ra.cur.n {
		if ra.cur.err != nil {
			return 0, ra.cur.err
		}
		if ra.cur.buf != nil {
			blockPool.Put(ra.cur.buf)
		}
		ra.cur, ra.off = <-ra.blocks, 0
	}
	n := copy(p, ra.cur.buf[ra.off:ra.cur.n])
	ra.off += n
	return n, nil
}

// stop ends the goroutine, waits for it to exit and returns every block
// to the pool. Nothing reads src after stop returns.
func (ra *readAhead) stop() {
	close(ra.quit)
	for b := range ra.blocks {
		blockPool.Put(b.buf)
	}
	if ra.cur.buf != nil {
		blockPool.Put(ra.cur.buf)
	}
}
