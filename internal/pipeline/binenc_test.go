package pipeline

import (
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"exiot/internal/organizer"
	"exiot/internal/packet"
	"exiot/internal/trw"
	"exiot/internal/wire"
)

func sampleBatchEvent(t testing.TB) SamplerEvent {
	t.Helper()
	base := time.Date(2021, 4, 8, 13, 0, 0, 0, time.UTC)
	var pkts []packet.Packet
	for i := 0; i < 5; i++ {
		p := packet.Packet{
			Timestamp:   base.Add(time.Duration(i) * 250 * time.Millisecond),
			TotalLength: 40,
			TTL:         64,
			Proto:       packet.TCP,
			SrcIP:       packet.IP(0x0A000001),
			DstIP:       packet.IP(0x2C000000 + uint32(i)),
			SrcPort:     40000,
			DstPort:     23,
			Seq:         1000 + uint32(i),
			DataOffset:  5,
			Flags:       packet.FlagSYN,
			Window:      1024,
		}
		p.Normalize()
		pkts = append(pkts, p)
	}
	ip := packet.IP(0x0A000001)
	return SamplerEvent{
		Kind: SamplerBatch,
		Batch: &organizer.Batch{
			IP:         ip,
			IPString:   ip.String(),
			FirstSeen:  base,
			DetectedAt: base.Add(time.Second),
			Sample:     pkts,
			SampleSize: len(pkts),
			TraceID:    0xDEADBEEF,
		},
		TraceID: 0xDEADBEEF,
	}
}

// roundTripV2 encodes e binary, wraps it in a wire frame, and decodes.
func roundTripV2(t *testing.T, e SamplerEvent) SamplerEvent {
	t.Helper()
	kind, payload, err := AppendEncodeEvent(nil, e)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeEvent(wire.Frame{Kind: kind, Payload: payload, Version: wire.Version2})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBinaryBatchRoundTrip(t *testing.T) {
	in := sampleBatchEvent(t)
	out := roundTripV2(t, in)
	if out.Kind != SamplerBatch || out.TraceID != in.TraceID {
		t.Fatalf("decoded %+v", out)
	}
	if !reflect.DeepEqual(in.Batch, out.Batch) {
		t.Errorf("batch mismatch:\n in: %+v\nout: %+v", in.Batch, out.Batch)
	}
}

func TestBinaryFlowEndRoundTrip(t *testing.T) {
	base := time.Date(2021, 4, 8, 13, 0, 0, 123456789, time.UTC)
	in := SamplerEvent{
		Kind:       SamplerFlowEnd,
		IP:         packet.IP(0x0A000002),
		FirstSeen:  base,
		DetectedAt: base.Add(3 * time.Second),
		LastSeen:   base.Add(40 * time.Minute),
		TraceID:    42,
	}
	out := roundTripV2(t, in)
	out.Trace = nil
	if !reflect.DeepEqual(in, out) {
		t.Errorf("flow end mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestBinaryReportRoundTrip(t *testing.T) {
	in := SamplerEvent{
		Kind: SamplerReport,
		Report: &trw.SecondReport{
			Second:       time.Date(2021, 4, 8, 13, 0, 7, 0, time.UTC),
			Total:        1200,
			TCP:          900,
			UDP:          250,
			ICMP:         50,
			Backscatter:  17,
			NewScanFlows: 3,
			PortPackets:  map[uint16]int{23: 400, 2323: 120, 80: 77},
		},
	}
	out := roundTripV2(t, in)
	if !reflect.DeepEqual(in.Report, out.Report) {
		t.Errorf("report mismatch:\n in: %+v\nout: %+v", in.Report, out.Report)
	}

	// A report with no port activity must round-trip with a nil map —
	// downstream equivalence checks distinguish nil from empty.
	in.Report.PortPackets = nil
	out = roundTripV2(t, in)
	if out.Report.PortPackets != nil {
		t.Errorf("empty PortPackets decoded non-nil: %+v", out.Report.PortPackets)
	}
}

func TestBinaryDecodeTruncated(t *testing.T) {
	in := sampleBatchEvent(t)
	kind, payload, err := AppendEncodeEvent(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 10, len(payload) / 2, len(payload) - 1} {
		if _, err := DecodeEvent(wire.Frame{Kind: kind, Payload: payload[:cut], Version: wire.Version2}); err == nil {
			t.Errorf("truncated payload (%d of %d bytes) decoded without error", cut, len(payload))
		}
	}
}

// hostileSampleFrame is a ~40-byte KindSample frame claiming 2³²−1
// packets: a well-formed batch header, the count, and a few bytes.
func hostileSampleFrame() wire.Frame {
	p := binary.BigEndian.AppendUint32(nil, 0x0A000001) // srcIP
	p = binary.BigEndian.AppendUint64(p, 1)             // firstSeen
	p = binary.BigEndian.AppendUint64(p, 2)             // detectedAt
	p = binary.BigEndian.AppendUint64(p, 3)             // traceID
	p = binary.BigEndian.AppendUint32(p, 200)           // sampleSize
	p = binary.BigEndian.AppendUint32(p, math.MaxUint32)
	p = append(p, 0, 20, 0x45, 0) // start of a first packet
	return wire.Frame{Kind: wire.KindSample, Payload: p, Version: wire.Version2}
}

// allocatedBytes reports the heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestBinaryDecodeHostileCounts: element counts come straight from the
// peer, so one the payload cannot back must be refused before it sizes an
// allocation — a ~40-byte frame must not cost gigabytes.
func TestBinaryDecodeHostileCounts(t *testing.T) {
	report := make([]byte, 7*8, 7*8+2) // second + six counters
	report = binary.BigEndian.AppendUint16(report, math.MaxUint16)
	for name, f := range map[string]wire.Frame{
		"sample claiming 2^32-1 packets": hostileSampleFrame(),
		"report claiming 65535 ports":    {Kind: wire.KindReport, Payload: report, Version: wire.Version2},
	} {
		var err error
		got := allocatedBytes(func() { _, err = DecodeEvent(f) })
		if err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		if got > 64<<10 {
			t.Errorf("%s: decoding %d payload bytes allocated %d bytes", name, len(f.Payload), got)
		}
	}
}

// TestBinaryDecodeTrailingBytes: a payload longer than its event is
// malformed, not an event plus ignorable padding.
func TestBinaryDecodeTrailingBytes(t *testing.T) {
	for _, e := range mixedEvents(t) {
		kind, payload, err := AppendEncodeEvent(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeEvent(wire.Frame{Kind: kind, Payload: append(payload, 0), Version: wire.Version2}); err == nil {
			t.Errorf("kind %d: trailing byte accepted", kind)
		}
	}
}

// mixedEvents is one event of each kind.
func mixedEvents(t testing.TB) []SamplerEvent {
	return []SamplerEvent{
		sampleBatchEvent(t),
		{
			Kind:       SamplerFlowEnd,
			IP:         packet.IP(0x0A000003),
			FirstSeen:  time.Date(2021, 4, 8, 13, 0, 1, 0, time.UTC),
			DetectedAt: time.Date(2021, 4, 8, 13, 0, 2, 0, time.UTC),
			LastSeen:   time.Date(2021, 4, 8, 13, 59, 0, 0, time.UTC),
			TraceID:    7,
		},
		{
			Kind: SamplerReport,
			Report: &trw.SecondReport{
				Second: time.Date(2021, 4, 8, 13, 0, 3, 0, time.UTC),
				Total:  10, TCP: 10,
				PortPackets: map[uint16]int{8080: 10},
			},
		},
	}
}

// TestMixedVersionDecode proves the one decode entry point handles both
// codecs: the same event encoded as JSON (the WAL form, Version 0) and
// as wire binary (Version2) decodes to the same SamplerEvent.
func TestMixedVersionDecode(t *testing.T) {
	events := mixedEvents(t)
	for i, e := range events {
		k1, p1, err := EncodeEvent(e)
		if err != nil {
			t.Fatal(err)
		}
		k2, p2, err := AppendEncodeEvent(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		if k1 != k2 {
			t.Fatalf("event %d: kind %d (json) vs %d (binary)", i, k1, k2)
		}
		fromV1, err := DecodeEvent(wire.Frame{Kind: k1, Payload: p1})
		if err != nil {
			t.Fatalf("event %d json decode: %v", i, err)
		}
		fromV2, err := DecodeEvent(wire.Frame{Kind: k2, Payload: p2, Version: wire.Version2})
		if err != nil {
			t.Fatalf("event %d binary decode: %v", i, err)
		}
		if !reflect.DeepEqual(fromV1, fromV2) {
			t.Errorf("event %d decodes diverge:\n json:   %+v\n binary: %+v", i, fromV1, fromV2)
		}
	}
}
