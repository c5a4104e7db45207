package trw

import (
	"sync"
	"testing"
	"time"

	"exiot/internal/packet"
)

// TestProcessSteadyStateZeroAlloc pins the detector hot loop at zero
// allocations per packet: within a second, with warm sources (a counting
// flow held under the duration floor, a post-sample scanner on the
// liveness path, and backscatter), Process must not touch the heap. This
// is the property the arena flow table exists to provide — any regression
// that reintroduces per-packet map inserts, time.Time boxing, or report
// churn fails here.
func TestProcessSteadyStateZeroAlloc(t *testing.T) {
	cfg := Config{DetectionThreshold: 4, SampleSize: 2,
		MinDuration: time.Minute} // floor blocks re-detection of the counter
	d := NewDetector(cfg, func(Event) {})

	ts := time.Date(2021, 9, 1, 10, 0, 0, 0, time.UTC)
	scanner := packet.MustParseIP("203.0.113.5")
	counter := packet.MustParseIP("203.0.113.6")

	// Warm up: drive `scanner` through detection and its full sample
	// (MinDuration floor disabled by spreading the walk over 2 minutes),
	// then move both sources into one quiet second.
	warmCfgTs := ts.Add(-10 * time.Minute)
	for i := 0; i < 8; i++ {
		p := synPacket(scanner, warmCfgTs.Add(time.Duration(i)*20*time.Second), 23)
		d.Process(&p)
	}
	if s := d.Stats(); s.ScannersFound != 1 || s.SamplesEmitted != 1 {
		t.Fatalf("warmup should fully detect and sample the scanner: %+v", s)
	}
	// Touch the counting source and both ports once inside the target
	// second so portTouched is populated and no flow restarts remain.
	pc := synPacket(counter, ts, 23)
	d.Process(&pc)
	ps := synPacket(scanner, ts, 2323)
	d.Process(&ps)

	// Steady state: same second, warm ports, liveness + counting +
	// backscatter paths. The counter stays below detection because the
	// zero-duration walk never satisfies the one-minute floor.
	pkts := []packet.Packet{
		synPacket(scanner, ts, 23),
		synPacket(counter, ts, 23),
		synPacket(scanner, ts, 2323),
		synPacket(counter, ts, 2323),
	}
	back := synPacket(scanner, ts, 23)
	back.Flags = packet.FlagSYN | packet.FlagACK

	allocs := testing.AllocsPerRun(200, func() {
		for i := range pkts {
			d.Process(&pkts[i])
		}
		d.Process(&back)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Process allocated %.2f allocs/run, want 0", allocs)
	}
}

// TestSamplePoolRoundTrip hammers the sample-buffer pool from many
// goroutines (run under -race in CI): buffers come back empty with their
// capacity intact, and recycling foreign or zero-cap slices is harmless.
func TestSamplePoolRoundTrip(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				b := newSampleBuf(64)
				if len(b) != 0 || cap(b) < 64 {
					t.Errorf("goroutine %d: newSampleBuf(64) len=%d cap=%d", g, len(b), cap(b))
					return
				}
				b = append(b, packet.Packet{SrcIP: packet.IP(g), Seq: uint32(i)})
				RecycleSample(b)
			}
			RecycleSample(nil)                      // no-op
			RecycleSample([]packet.Packet{})        // zero cap: ignored
			RecycleSample(make([]packet.Packet, 3)) // foreign buffer: accepted
		}(g)
	}
	wg.Wait()
}
