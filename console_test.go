package exiot_test

import (
	"strings"
	"testing"
	"time"

	"exiot/internal/console"
	"exiot/internal/packet"
	"exiot/internal/trw"
)

// TestConsoleFeedEquivalence is the operator console's inertness proof:
// a full day with the console live — the feed cache rebuilding, the
// campaign tracker riding the rebuild hook, the stats ring ticking and a
// client polling every console page throughout — exports the feed the
// console-less run does. The console reads counters the pipeline already
// keeps; it never writes to the feed or the hot path. The console the
// client polled saw real data: a full volume ring and tracked campaigns.
func TestConsoleFeedEquivalence(t *testing.T) {
	out := prove(t, consoleWorld, row{name: "workers=4 console", procs: 4, console: true})
	if out.polls == 0 {
		t.Fatal("the polling client never completed a request; the proof would be vacuous")
	}
	if string(out.cache.Current().ExportNDJSON()) != out.fp.export {
		t.Fatal("the console's feed cache exports other bytes than the store walk")
	}
	var ov struct {
		Volume []struct {
			Records float64 `json:"records"`
		} `json:"volume"`
		Feed *struct {
			Records int `json:"records"`
		} `json:"feed"`
	}
	decodeJSON(t, get(out.console, "/console/api/overview"), &ov)
	if len(ov.Volume) != consoleWorld.hours {
		t.Fatalf("volume ring has %d points, want %d", len(ov.Volume), consoleWorld.hours)
	}
	var total float64
	for _, p := range ov.Volume {
		total += p.Records
	}
	if total == 0 {
		t.Fatal("volume ring recorded no feed records across a full day")
	}
	if ov.Feed == nil || ov.Feed.Records == 0 {
		t.Fatal("overview reports no feed snapshot")
	}
	var camps struct {
		Tracked   bool `json:"tracked"`
		Campaigns []struct {
			ID string `json:"id"`
		} `json:"campaigns"`
	}
	decodeJSON(t, get(out.console, "/console/api/campaigns"), &camps)
	if !camps.Tracked {
		t.Fatal("campaigns endpoint is not in tracked mode")
	}
	for _, c := range camps.Campaigns {
		if !strings.HasPrefix(c.ID, "C-") {
			t.Fatalf("campaign carries malformed ID %q", c.ID)
		}
	}
}

// TestConsolePacketPathZeroAlloc pins the other half of the inertness
// bar: with a console constructed and actively sampling in the process,
// the untraced detector hot loop still never touches the heap. The
// console reads registry atomics on its own tick; nothing it does adds
// work — or allocations — to per-packet processing.
func TestConsolePacketPathZeroAlloc(t *testing.T) {
	con := console.New(console.Config{})
	now := time.Date(2021, 9, 1, 10, 0, 0, 0, time.UTC)
	con.Tick(now.Add(-2 * time.Second))
	con.Tick(now.Add(-time.Second)) // ring primed: deltas are live

	cfg := trw.Config{DetectionThreshold: 4, SampleSize: 2, MinDuration: time.Minute}
	d := trw.NewDetector(cfg, func(trw.Event) {})

	syn := func(src packet.IP, ts time.Time, dstPort uint16) packet.Packet {
		p := packet.Packet{
			Timestamp: ts,
			Proto:     packet.TCP,
			SrcIP:     src,
			DstIP:     packet.MustParseIP("10.1.2.3"),
			SrcPort:   40000,
			DstPort:   dstPort,
			Flags:     packet.FlagSYN,
			TTL:       48,
		}
		p.Normalize()
		return p
	}
	scanner := packet.MustParseIP("203.0.113.5")
	counter := packet.MustParseIP("203.0.113.6")

	// Warm the detector exactly as the trw steady-state pin does: drive
	// the scanner through detection and its sample, then settle both
	// sources into one quiet second.
	warm := now.Add(-10 * time.Minute)
	for i := 0; i < 8; i++ {
		p := syn(scanner, warm.Add(time.Duration(i)*20*time.Second), 23)
		d.Process(&p)
	}
	pc := syn(counter, now, 23)
	d.Process(&pc)
	ps := syn(scanner, now, 2323)
	d.Process(&ps)

	pkts := []packet.Packet{
		syn(scanner, now, 23),
		syn(counter, now, 23),
		syn(scanner, now, 2323),
		syn(counter, now, 2323),
	}
	allocs := testing.AllocsPerRun(200, func() {
		for i := range pkts {
			d.Process(&pkts[i])
		}
	})
	con.Tick(now) // the console keeps sampling after; still inert
	if allocs != 0 {
		t.Fatalf("packet path allocated %.2f allocs/run with a live console, want 0", allocs)
	}
}
