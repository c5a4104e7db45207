package wire

import (
	"testing"

	"exiot/internal/allocbudget"
)

// TestQueueAllocBudget bounds the allocations per shipped event: one
// Queue of an already encoded event over a warm loopback connection.
// The count covers the whole process, so the receiver's per-frame
// work is in the count too, and the runs span whole coalesced batches so
// every counted frame is also read and acked inside the count. The
// ceiling is ⌊1.10 × the 2 allocs/op recorded for shipping an event⌋.
func TestQueueAllocBudget(t *testing.T) {
	r, err := NewReceiver("127.0.0.1:0", func(Frame) {})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	s := NewSenderV2(r.Addr(), 0, 1)
	defer s.Close()

	payload := make([]byte, 128)
	frame := v2HeaderSize + len(payload)
	perBatch := (senderFlushSize + frame - 1) / frame
	for i := 0; i < perBatch; i++ { // dial and size the buffers
		if err := s.Queue(KindReport, 3600, payload); err != nil {
			t.Fatal(err)
		}
	}
	allocbudget.Check(t, 4*perBatch, [2]float64{2, 2}, func() {
		if err := s.Queue(KindReport, 3600, payload); err != nil {
			t.Fatal(err)
		}
	})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}
