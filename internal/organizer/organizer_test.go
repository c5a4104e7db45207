package organizer

import (
	"testing"
	"time"

	"exiot/internal/packet"
	"exiot/internal/trw"
)

var t0 = time.Date(2020, 12, 9, 7, 0, 0, 0, time.UTC)

func sampleEvent(ip string, n int) trw.Event {
	src := packet.MustParseIP(ip)
	sample := make([]packet.Packet, 0, n)
	for i := 0; i < n; i++ {
		p := packet.Packet{
			Timestamp: t0.Add(time.Duration(i) * time.Second),
			Proto:     packet.TCP,
			SrcIP:     src,
			DstIP:     packet.MustParseIP("10.0.0.1"),
			DstPort:   23,
			Flags:     packet.FlagSYN,
			Seq:       uint32(i),
			Window:    5840,
			TTL:       48,
			Options:   packet.TCPOptions{HasMSS: true, MSS: 1460, NOP: true},
		}
		p.Normalize()
		sample = append(sample, p)
	}
	return trw.Event{
		Kind:       trw.EventSample,
		IP:         src,
		FirstSeen:  t0.Add(-100 * time.Second),
		DetectedAt: t0,
		Sample:     sample,
	}
}

func TestOrganizeAccepts(t *testing.T) {
	var o Organizer
	b, ok := o.Organize(sampleEvent("203.0.113.1", 200))
	if !ok {
		t.Fatal("full sample rejected")
	}
	if b.IPString != "203.0.113.1" || b.SampleSize != 200 || len(b.Sample) != 200 {
		t.Errorf("batch = %+v", b)
	}
	accepted, dropped := o.Stats()
	if accepted != 1 || dropped != 0 {
		t.Errorf("stats = %d/%d", accepted, dropped)
	}
}

func TestOrganizeDropsShortFlows(t *testing.T) {
	var o Organizer
	if _, ok := o.Organize(sampleEvent("203.0.113.2", 10)); ok {
		t.Error("10-packet sample should be dropped (node malfunction)")
	}
	if _, ok := o.Organize(sampleEvent("203.0.113.2", DefaultMinSamples-1)); ok {
		t.Error("below-threshold sample should be dropped")
	}
	if _, ok := o.Organize(sampleEvent("203.0.113.2", DefaultMinSamples)); !ok {
		t.Error("at-threshold sample should pass")
	}
	accepted, dropped := o.Stats()
	if accepted != 1 || dropped != 2 {
		t.Errorf("stats = %d/%d", accepted, dropped)
	}
}

func TestOrganizeIgnoresNonSampleEvents(t *testing.T) {
	var o Organizer
	if _, ok := o.Organize(trw.Event{Kind: trw.EventFlowEnd}); ok {
		t.Error("non-sample event organized")
	}
}

func TestOrganizeSortsByArrival(t *testing.T) {
	e := sampleEvent("203.0.113.3", 100)
	// Shuffle a few packets out of order (merged capture workers).
	e.Sample[10], e.Sample[50] = e.Sample[50], e.Sample[10]
	e.Sample[20], e.Sample[80] = e.Sample[80], e.Sample[20]
	var o Organizer
	b, ok := o.Organize(e)
	if !ok {
		t.Fatal("rejected")
	}
	for i := 1; i < len(b.Sample); i++ {
		if b.Sample[i].Timestamp.Before(b.Sample[i-1].Timestamp) {
			t.Fatal("batch not sorted by arrival time")
		}
	}
	// The original event must not be mutated (defensive copy).
	if !e.Sample[10].Timestamp.After(e.Sample[9].Timestamp) {
		// it was swapped; still swapped means no mutation
	} else {
		t.Log("original sample order restored — copy semantics violated?")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	var o Organizer
	b, ok := o.Organize(sampleEvent("203.0.113.4", 120))
	if !ok {
		t.Fatal("rejected")
	}
	data, err := Encode(&b)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.IP != b.IP || back.SampleSize != b.SampleSize {
		t.Errorf("header lost: %+v", back)
	}
	if !back.FirstSeen.Equal(b.FirstSeen) || !back.DetectedAt.Equal(b.DetectedAt) {
		t.Error("timestamps lost")
	}
	if len(back.Sample) != len(b.Sample) {
		t.Fatalf("sample length = %d, want %d", len(back.Sample), len(b.Sample))
	}
	for i := range back.Sample {
		if !back.Sample[i].Timestamp.Equal(b.Sample[i].Timestamp) {
			t.Fatalf("packet %d timestamp lost", i)
		}
		if back.Sample[i].Seq != b.Sample[i].Seq || back.Sample[i].Options != b.Sample[i].Options {
			t.Fatalf("packet %d fields lost", i)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte("not json")); err == nil {
		t.Error("garbage should not decode")
	}
	if _, err := Decode([]byte(`{"header":{"ip":"bad-ip"},"packets":[],"stamps":[]}`)); err == nil {
		t.Error("bad IP should not decode")
	}
	if _, err := Decode([]byte(`{"header":{"ip":"1.2.3.4"},"packets":[[1,2]],"stamps":[]}`)); err == nil {
		t.Error("mismatched packets/stamps should not decode")
	}
}
