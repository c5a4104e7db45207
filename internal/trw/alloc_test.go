package trw

import (
	"math/rand"
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

// TestShardBatchPoolRoundTrip does the same for the sharded router's
// batch slices, checking recycled batches come back length-zero and that
// putShardBatch drops packet pointers (so pooled batches cannot pin an
// hour's packet slab).
func TestShardBatchPoolRoundTrip(t *testing.T) {
	// Single-threaded first: putShardBatch must drop packet pointers.
	// (Reading a batch after putting it back is a use-after-free, so this
	// check cannot live inside the concurrent section.)
	pkt := packet.Packet{SrcIP: 1}
	b := append(newShardBatch(), &pkt)
	view := b[:1]
	putShardBatch(b)
	if view[0] != nil {
		t.Fatal("putShardBatch left packet pointer live in pooled batch")
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pkt := packet.Packet{SrcIP: packet.IP(g)}
			for i := 0; i < 2000; i++ {
				b := newShardBatch()
				if len(b) != 0 {
					t.Errorf("goroutine %d: pooled batch len=%d, want 0", g, len(b))
					return
				}
				b = append(b, &pkt)
				putShardBatch(b)
			}
		}(g)
	}
	wg.Wait()
}

// allocParityPackets synthesizes one contiguous stretch of telescope
// traffic: hundreds of sources SYN-scanning distinct destinations across
// many seconds, enough for plenty of them to cross the detection
// threshold and for every second to carry port activity.
func allocParityPackets() []packet.Packet {
	base := time.Date(2021, 4, 8, 13, 0, 0, 0, time.UTC)
	r := rand.New(rand.NewSource(7))
	const seconds, sources = 120, 300
	pkts := make([]packet.Packet, 0, seconds*sources)
	for s := 0; s < seconds; s++ {
		ts := base.Add(time.Duration(s) * time.Second)
		for i := 0; i < sources; i++ {
			p := packet.Packet{
				Timestamp:   ts.Add(time.Duration(i) * time.Millisecond),
				TotalLength: 40,
				TTL:         64,
				Proto:       packet.TCP,
				SrcIP:       packet.IP(0x0A000000 + uint32(i)),
				DstIP:       packet.IP(0x2C000000 + r.Uint32()%(1<<16)),
				SrcPort:     uint16(40000 + i),
				DstPort:     [3]uint16{23, 2323, 80}[i%3],
				Seq:         uint32(s*sources + i),
				DataOffset:  5,
				Flags:       packet.FlagSYN,
				Window:      1024,
			}
			p.Normalize()
			pkts = append(pkts, p)
		}
	}
	return pkts
}

// TestShardedAllocParity pins the sharded-ingest allocation fix: an hour
// of detection through the 4-shard coordinator must stay within 2x the
// serial detector's allocations. The recycled report structs, the flat
// port-tally arenas, and the pooled routing batches are what keep the
// multiplier down — a regression in any of them trips this.
func TestShardedAllocParity(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow")
	}
	pkts := allocParityPackets()
	hourEnd := pkts[len(pkts)-1].Timestamp.Truncate(time.Hour).Add(time.Hour)

	serial := testing.AllocsPerRun(3, func() {
		det := NewDetector(Default(), func(Event) {})
		for i := range pkts {
			det.Process(&pkts[i])
		}
		det.EndHour(hourEnd)
		det.Flush(hourEnd)
	})
	sharded := testing.AllocsPerRun(3, func() {
		det := NewShardedDetector(Default(), 4, func(Event) {})
		det.ProcessBatch(pkts)
		det.EndHour(hourEnd)
		det.Flush(hourEnd)
		det.Close()
	})

	t.Logf("allocs/run: serial %.0f, sharded(4) %.0f (%.2fx)", serial, sharded, sharded/serial)
	if serial == 0 {
		t.Fatal("serial run measured zero allocations; harness broken")
	}
	if sharded > 2*serial {
		t.Errorf("sharded detection allocates %.0f/run, more than 2x the serial %.0f/run", sharded, serial)
	}
}
