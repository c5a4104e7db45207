package pipeline

import (
	"fmt"
	"testing"
	"time"

	"exiot/internal/feed"
	"exiot/internal/trw"
)

// reportServer returns a server holding records live records — each in
// the historical database with its active key, as finishRecord leaves
// them — and a per-second report event for it, with
// the instant both arrive at.
func reportServer(records int) (*Server, SamplerEvent, time.Time) {
	at := time.Date(2020, 12, 9, 1, 6, 0, 0, time.UTC)
	srv := NewServer(DefaultServerConfig(), nil, nil, nil)
	for i := 0; i < records; i++ {
		rec := feed.Record{IP: fmt.Sprintf("10.%d.%d.%d", i>>16, i>>8&255, i&255), Active: true}
		id := srv.historical.Insert(at, rec)
		srv.active.Set(activeKey(rec.IP), string(id))
	}
	rep := &trw.SecondReport{Second: at.Add(-time.Hour), Total: 40, TCP: 40,
		PortPackets: map[uint16]int{23: 30, 2323: 10}}
	return srv, SamplerEvent{Kind: SamplerReport, Report: rep}, at
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

// BenchmarkActiveCount is the exiot_feed_active_records gauge's read,
// made after every record insert and flow end.
func BenchmarkActiveCount(b *testing.B) {
	for _, records := range []int{100, 10_000} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			srv, _, _ := reportServer(records)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if srv.ActiveCount() != records {
					b.Fatal("active keys lost")
				}
			}
		})
	}
}
