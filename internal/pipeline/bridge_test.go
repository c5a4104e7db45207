package pipeline

import (
	"testing"
	"time"

	"exiot/internal/organizer"
	"exiot/internal/packet"
	"exiot/internal/simnet"
	"exiot/internal/trw"
	"exiot/internal/wire"
)

func TestBridgeBatchRoundTrip(t *testing.T) {
	t0 := time.Date(2020, 12, 9, 7, 0, 0, 0, time.UTC)
	ip := packet.MustParseIP("203.0.113.44")
	sample := make([]packet.Packet, 0, 60)
	for i := 0; i < 60; i++ {
		p := packet.Packet{
			Timestamp: t0.Add(time.Duration(i) * time.Second),
			Proto:     packet.TCP,
			SrcIP:     ip,
			DstIP:     packet.MustParseIP("10.0.0.1"),
			DstPort:   23,
			Flags:     packet.FlagSYN,
			Seq:       uint32(i),
			TTL:       48,
		}
		p.Normalize()
		sample = append(sample, p)
	}
	e := SamplerEvent{
		Kind: SamplerBatch,
		Batch: &organizer.Batch{
			IP: ip, IPString: ip.String(),
			FirstSeen: t0.Add(-time.Minute), DetectedAt: t0,
			Sample: sample, SampleSize: len(sample),
		},
	}
	kind, data, err := EncodeEvent(e)
	if err != nil {
		t.Fatal(err)
	}
	if kind != wire.KindSample {
		t.Errorf("kind = %d", kind)
	}
	back, err := DecodeEvent(wire.Frame{Kind: kind, Payload: data})
	if err != nil {
		t.Fatal(err)
	}
	if back.Kind != SamplerBatch || back.Batch.IP != ip || len(back.Batch.Sample) != 60 {
		t.Errorf("roundtrip = %+v", back)
	}
	if back.Batch.Sample[59].Seq != 59 {
		t.Error("packet fields lost")
	}
}

func TestBridgeFlowEndRoundTrip(t *testing.T) {
	t0 := time.Date(2020, 12, 9, 7, 0, 0, 0, time.UTC)
	e := SamplerEvent{
		Kind:       SamplerFlowEnd,
		IP:         packet.MustParseIP("198.51.100.9"),
		FirstSeen:  t0,
		DetectedAt: t0.Add(time.Minute),
		LastSeen:   t0.Add(time.Hour),
	}
	kind, data, err := EncodeEvent(e)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeEvent(wire.Frame{Kind: kind, Payload: data})
	if err != nil {
		t.Fatal(err)
	}
	if back.IP != e.IP || !back.LastSeen.Equal(e.LastSeen) || !back.FirstSeen.Equal(e.FirstSeen) {
		t.Errorf("roundtrip = %+v", back)
	}
}

func TestBridgeReportRoundTrip(t *testing.T) {
	e := SamplerEvent{
		Kind: SamplerReport,
		Report: &trw.SecondReport{
			Second: time.Date(2020, 12, 9, 7, 0, 0, 0, time.UTC),
			Total:  100, TCP: 90, UDP: 7, ICMP: 3,
			NewScanFlows: 2,
			PortPackets:  map[uint16]int{23: 60, 80: 30},
		},
	}
	kind, data, err := EncodeEvent(e)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeEvent(wire.Frame{Kind: kind, Payload: data})
	if err != nil {
		t.Fatal(err)
	}
	if back.Report.Total != 100 || back.Report.PortPackets[23] != 60 {
		t.Errorf("roundtrip = %+v", back.Report)
	}
}

func TestBridgeErrors(t *testing.T) {
	if _, _, err := EncodeEvent(SamplerEvent{Kind: 99}); err == nil {
		t.Error("unknown kind encoded")
	}
	if _, err := DecodeEvent(wire.Frame{Kind: 99}); err == nil {
		t.Error("unknown frame decoded")
	}
	if _, err := DecodeEvent(wire.Frame{Kind: wire.KindFlowEnd, Payload: []byte("junk")}); err == nil {
		t.Error("junk flow end decoded")
	}
	if _, err := DecodeEvent(wire.Frame{Kind: wire.KindReport, Payload: []byte("junk")}); err == nil {
		t.Error("junk report decoded")
	}
	if _, err := DecodeEvent(wire.Frame{Kind: wire.KindSample, Payload: []byte("junk")}); err == nil {
		t.Error("junk sample decoded")
	}
}

// TestSplitPipelineOverWire runs the node half and the server half in the
// same process but connected only through the wire transport — the
// deployment shape of cmd/flowsampler + cmd/exiotd at one shard: binary
// frames, an hour barrier per hour, the aggregator in front of the feed.
func TestSplitPipelineOverWire(t *testing.T) {
	cfg := simnetSmall(300)
	w := newWorld(cfg)

	// Server side.
	lcfg := DefaultLocalConfig()
	lcfg.Server.ScanMod.BatchSize = 20
	back, err := NewBackHalf(lcfg, w, w.Registry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	agg := back.Receive(1)
	recv, err := wire.NewReceiver("127.0.0.1:0", func(f wire.Frame) {
		if err := agg.Ingest(f); err != nil {
			t.Errorf("ingest: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	merged := metClusterHoursMerged.Value()

	// Node side, shipping over the wire.
	sender := wire.NewSenderV2(recv.Addr(), 0, 1)
	defer sender.Close()
	node := NewShipper(trw.Default(), 0, 1, sender)
	const hours = 3
	for h := 0; h < hours; h++ {
		hour := w.Start().Add(time.Duration(h) * time.Hour)
		if err := node.ProcessHour(w.GenerateHour(hour), hour); err != nil {
			t.Fatal(err)
		}
	}
	// The final barrier returns once the receiver acked, i.e. after its
	// handler — and therefore the merge — ran; Close joins the handler
	// goroutine.
	if err := node.Finish(w.Start().Add(hours * time.Hour)); err != nil {
		t.Fatal(err)
	}
	recv.Close()

	server := back.Server()
	if got := metClusterHoursMerged.Value() - merged; got != hours+1 {
		t.Errorf("merged %d hours, want %d (one per hour + final flush)", got, hours+1)
	}
	if server.Counters().RecordsCreated == 0 {
		t.Error("no records crossed the wire")
	}
	if server.Counters().Reports == 0 {
		t.Error("no reports crossed the wire")
	}
}

func simnetSmall(seed int64) simnet.Config {
	cfg := simnet.DefaultConfig(seed)
	cfg.NumInfected = 60
	cfg.NumNonIoT = 12
	cfg.NumResearch = 2
	cfg.NumMisconfig = 5
	cfg.NumBackscat = 2
	cfg.MaxPacketsPerHostHour = 800
	return cfg
}

func newWorld(cfg simnet.Config) *simnet.World { return simnet.NewWorld(cfg) }
