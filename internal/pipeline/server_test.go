package pipeline

import (
	"fmt"
	"maps"
	"sync"
	"testing"
	"time"

	"exiot/internal/feed"
	"exiot/internal/packet"
	"exiot/internal/trw"
)

// reportServer returns a server holding records live records — each in
// the historical database and the live-flow index, as finishRecord
// leaves them — and a per-second report event for it, with
// the instant both arrive at.
func reportServer(records int) (*Server, SamplerEvent, time.Time) {
	at := time.Date(2020, 12, 9, 1, 6, 0, 0, time.UTC)
	srv := NewServer(DefaultServerConfig(), nil, nil, nil)
	for i := 0; i < records; i++ {
		rec := feed.Record{IP: fmt.Sprintf("10.%d.%d.%d", i>>16, i>>8&255, i&255), Active: true}
		srv.active[packet.MustParseIP(rec.IP)] = srv.historical.Insert(at, rec)
	}
	rep := &trw.SecondReport{Second: at.Add(-time.Hour), Total: 40, TCP: 40,
		PortPackets: map[uint16]int{23: 30, 2323: 10}}
	return srv, SamplerEvent{Kind: SamplerReport, Report: rep}, at
}

// TestLiveIndexConcurrentReads reads the live-flow index the way the
// API and the console do, from their own goroutines, while the feed
// server applies a captured stream. Run it under -race.
func TestLiveIndexConcurrentReads(t *testing.T) {
	events, w := captureBackHalf(t, 213, 4)
	srv := backHalfServer(w, 213, 1)
	var ips []string
	for _, se := range events {
		if se.e.Kind == SamplerBatch {
			ips = append(ips, se.e.Batch.IPString)
		}
	}
	if len(ips) == 0 {
		t.Fatal("the stream detects no scanner")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ip := ips[i%len(ips)]
				if rec, ok := srv.RecordByIP(ip); ok && rec.IP != ip {
					t.Errorf("RecordByIP(%s) = the record of %s", ip, rec.IP)
				}
				if rep, ok := srv.Why(ip); ok && rep.Record.IP != ip {
					t.Errorf("Why(%s) = the record of %s", ip, rep.Record.IP)
				}
			}
		}(r)
	}
	// Before each flow end, every index entry names the live record of
	// its own source.
	checked := 0
	for _, se := range events {
		if se.e.Kind == SamplerFlowEnd {
			srv.mu.Lock()
			live := maps.Clone(srv.active)
			srv.mu.Unlock()
			for ip, id := range live {
				rec, ok := srv.Historical().Get(id)
				if !ok || !rec.Active || rec.IP != ip.String() {
					t.Errorf("index entry %v → %s holds %+v (found %v)", ip, id, rec, ok)
				}
			}
			checked += len(live)
		}
		srv.HandleEvent(se.e, se.at)
	}
	srv.FlushScans(events[len(events)-1].at)
	close(stop)
	wg.Wait()
	if c := srv.Counters(); checked == 0 || c.FlowsEnded == 0 {
		t.Fatalf("stream too quiet to prove anything: %d index entries checked, %+v", checked, c)
	}
}

// TestHandleEventCostIgnoresStoreSize pins the retention cost model: 95 %
// of sampler events are per-second reports, each ends in Tick, and none
// may pay for the records the historical database holds.
func TestHandleEventCostIgnoresStoreSize(t *testing.T) {
	allocs := func(records int) float64 {
		srv, ev, at := reportServer(records)
		n := testing.AllocsPerRun(200, func() { srv.HandleEvent(ev, at) })
		if got := srv.Historical().Len(); got != records {
			t.Fatalf("%d of %d records left: nothing was due", got, records)
		}
		return n
	}
	if empty, full := allocs(0), allocs(5000); empty != full {
		t.Errorf("a report event allocates %v times over an empty store and %v over 5000 records", empty, full)
	}
}

func BenchmarkHandleEventReport(b *testing.B) {
	for _, records := range []int{100, 10_000} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			srv, ev, at := reportServer(records)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv.HandleEvent(ev, at)
			}
		})
	}
}
