// Wire-path throughput: compact binary payloads in coalesced batched
// writes with one cumulative ack per batch, over a real loopback TCP
// connection. Captured to BENCH_wire.json; the CI cluster job re-runs it
// and flags regressions.
package exiot_test

import (
	"testing"
	"time"

	"exiot/internal/pipeline"
	"exiot/internal/wire"
)

// BenchmarkWireThroughput ships the cached back-half event stream (a
// realistic mix of sample batches, flow ends, and per-second reports)
// through the sender and reports events/sec. B/op is the
// per-event sender-side allocation cost — the number the pooled frame
// buffers and append-style binary encoder exist to shrink.
func BenchmarkWireThroughput(b *testing.B) {
	events, _ := backHalfEvents(b)

	b.Run("v2-binary", func(b *testing.B) {
		recv, err := wire.NewReceiver("127.0.0.1:0", func(wire.Frame) {})
		if err != nil {
			b.Fatal(err)
		}
		defer recv.Close()
		sender := wire.NewSenderV2(recv.Addr(), 0, 1)
		defer sender.Close()
		epoch := events[0].hourEnd.Unix()
		var encBuf []byte
		b.ReportAllocs()
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			e := events[i%len(events)].e
			kind, data, err := pipeline.AppendEncodeEvent(encBuf[:0], e)
			if err != nil {
				b.Fatal(err)
			}
			encBuf = data[:0]
			if err := sender.Queue(kind, epoch, data); err != nil {
				b.Fatal(err)
			}
		}
		// The tail batch's ack round-trip is part of the measured cost,
		// exactly as a shard's hour barrier would be.
		if err := sender.Flush(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "events/sec")
	})
}
