package trw

import (
	"sync"

	"exiot/internal/packet"
)

// samplePool recycles post-detection sample buffers. The detector draws a
// buffer when a source crosses the TRW threshold and hands it downstream
// inside the EventSample; consumers that copy the packets out (the
// pipeline's organizer does) return the buffer with RecycleSample so the
// next detection allocates nothing. Consumers that retain Event.Sample
// simply never recycle — the pool is opt-in, not ownership-by-default.
var samplePool sync.Pool // holds *[]packet.Packet

// newSampleBuf returns an empty packet buffer with capacity ≥ n,
// preferring a recycled one.
func newSampleBuf(n int) []packet.Packet {
	if v := samplePool.Get(); v != nil {
		b := *(v.(*[]packet.Packet))
		if cap(b) >= n {
			return b[:0]
		}
	}
	return make([]packet.Packet, 0, n)
}

// RecycleSample returns a sample buffer received in an EventSample to the
// detector's buffer pool. Call it only after every packet has been copied
// out of the slice; the buffer may be handed to another detection (on any
// goroutine) immediately. A nil or zero-capacity slice is ignored.
func RecycleSample(b []packet.Packet) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	samplePool.Put(&b)
}
