package enrich

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"exiot/internal/feed"
	"exiot/internal/packet"
	"exiot/internal/registry"
	"exiot/internal/simnet/simnettest"
)

var t0 = time.Date(2020, 12, 9, 7, 0, 0, 0, time.UTC)

func tcpSample(n int, mutate func(i int, p *packet.Packet)) []packet.Packet {
	out := make([]packet.Packet, 0, n)
	for i := 0; i < n; i++ {
		p := packet.Packet{
			Timestamp: t0.Add(time.Duration(i) * time.Second),
			Proto:     packet.TCP,
			SrcIP:     packet.MustParseIP("203.0.113.77"),
			DstIP:     packet.IP(0x0A000000 + uint32(i)*9973),
			SrcPort:   44000,
			DstPort:   23,
			Flags:     packet.FlagSYN,
			TTL:       50,
			Window:    5840,
		}
		if mutate != nil {
			mutate(i, &p)
		}
		p.Normalize()
		out = append(out, p)
	}
	return out
}

func TestFingerprintZMap(t *testing.T) {
	sample := tcpSample(100, func(i int, p *packet.Packet) {
		p.ID = 54321
		p.Window = 65535
		p.DstPort = 80
	})
	if got := FingerprintTool(sample); got != ToolZMap {
		t.Errorf("FingerprintTool = %q, want ZMap", got)
	}
}

func TestFingerprintMirai(t *testing.T) {
	sample := tcpSample(100, func(i int, p *packet.Packet) {
		p.Seq = uint32(p.DstIP)
		p.ID = uint16(i * 7)
	})
	if got := FingerprintTool(sample); got != ToolMirai {
		t.Errorf("FingerprintTool = %q, want Mirai", got)
	}
}

func TestFingerprintMasscan(t *testing.T) {
	sample := tcpSample(100, func(i int, p *packet.Packet) {
		p.Seq = uint32(i) * 2654435761
		p.ID = uint16(uint32(p.DstIP)) ^ p.DstPort ^ uint16(p.Seq)
	})
	if got := FingerprintTool(sample); got != ToolMasscan {
		t.Errorf("FingerprintTool = %q, want Masscan", got)
	}
}

func TestFingerprintNmap(t *testing.T) {
	sample := tcpSample(100, func(i int, p *packet.Packet) {
		p.Window = 1024
		p.Options = packet.TCPOptions{HasMSS: true, MSS: 1460}
		p.ID = uint16(i)
		p.Seq = uint32(i) * 977
	})
	if got := FingerprintTool(sample); got != ToolNmap {
		t.Errorf("FingerprintTool = %q, want Nmap", got)
	}
}

func TestFingerprintUnknown(t *testing.T) {
	sample := tcpSample(100, func(i int, p *packet.Packet) {
		p.ID = uint16(i)
		p.Seq = uint32(i) * 104729
		p.Options = packet.TCPOptions{HasMSS: true, MSS: 1460, HasWScale: true, WScale: 7}
	})
	if got := FingerprintTool(sample); got != "" {
		t.Errorf("FingerprintTool = %q, want unknown", got)
	}
	if got := FingerprintTool(nil); got != "" {
		t.Errorf("FingerprintTool(nil) = %q", got)
	}
	// Pure-UDP sample: no TCP fingerprint possible.
	udp := tcpSample(10, func(i int, p *packet.Packet) { p.Proto = packet.UDP })
	if got := FingerprintTool(udp); got != "" {
		t.Errorf("FingerprintTool(udp) = %q", got)
	}
}

func TestComputeFlowStats(t *testing.T) {
	sample := tcpSample(101, func(i int, p *packet.Packet) {
		if i%2 == 0 {
			p.DstPort = 23
		} else {
			p.DstPort = 2323
		}
	})
	st := ComputeFlowStats(sample)
	if st.TargetPorts[23] != 51 || st.TargetPorts[2323] != 50 {
		t.Errorf("port counts = %v", st.TargetPorts)
	}
	// 100 packets over 100 s → 1 pps.
	if math.Abs(st.RatePPS-1.0) > 1e-9 {
		t.Errorf("rate = %v, want 1.0", st.RatePPS)
	}
	// Every destination unique → repetition ratio 1.
	if math.Abs(st.AddrRepetition-1.0) > 1e-9 {
		t.Errorf("addr repetition = %v, want 1.0", st.AddrRepetition)
	}
}

func TestAddrRepetition(t *testing.T) {
	// All packets to a single destination → ratio = len(sample).
	sample := tcpSample(50, func(i int, p *packet.Packet) {
		p.DstIP = packet.MustParseIP("10.1.1.1")
	})
	st := ComputeFlowStats(sample)
	if st.AddrRepetition != 50 {
		t.Errorf("addr repetition = %v, want 50", st.AddrRepetition)
	}
	// Longer than the on-stack copy: 300 packets over 150 destinations.
	long := tcpSample(300, func(i int, p *packet.Packet) {
		p.DstIP = packet.IP(0x0A000000 + uint32(i%150)*9973)
	})
	if st := ComputeFlowStats(long); st.AddrRepetition != 2 {
		t.Errorf("300-packet addr repetition = %v, want 2", st.AddrRepetition)
	}
	if st := ComputeFlowStats(nil); st.AddrRepetition != 0 || st.RatePPS != 0 {
		t.Errorf("empty sample stats = %+v", st)
	}
}

// TestAddrRepetitionMatchesSet holds the sorted-copy distinct count to
// the set it replaced, on real-shaped flows.
func TestAddrRepetitionMatchesSet(t *testing.T) {
	for _, flow := range simnettest.Flows(2021, 2) {
		set := map[packet.IP]struct{}{}
		for _, p := range flow {
			set[p.DstIP] = struct{}{}
		}
		want := float64(len(flow)) / float64(len(set))
		if got := ComputeFlowStats(flow).AddrRepetition; got != want {
			t.Fatalf("%d-packet flow: addr repetition %v, want %v", len(flow), got, want)
		}
	}
}

func BenchmarkComputeFlowStats(b *testing.B) {
	flows := slices.DeleteFunc(simnettest.Flows(2021, 2), func(flow []packet.Packet) bool {
		return len(flow) < simnettest.SampleSize
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchStats = ComputeFlowStats(flows[i%len(flows)])
	}
}

var benchStats FlowStats

func TestIsBenignRDNS(t *testing.T) {
	benign := []string{
		"researchscan-141-212-120-5.census.umich.edu",
		"census1.shodan.io",
		"scan01.sonar.labs.rapid7.com",
		"a.b.shadowserver.org",
	}
	for _, r := range benign {
		if !IsBenignRDNS(r) {
			t.Errorf("%q should be benign", r)
		}
	}
	malicious := []string{
		"", "1-2-3-4.dyn.chinatelecom.com.cn", "host.example.com",
		"umich.edu.evil.com",
	}
	for _, r := range malicious {
		if IsBenignRDNS(r) {
			t.Errorf("%q should not be benign", r)
		}
	}
}

func TestAnnotateFillsRecord(t *testing.T) {
	reg := registry.Build(registry.Config{Seed: 3, Blocks: 512})
	e := New(reg)

	// A registry-allocated source.
	rng := newRand(7)
	src := reg.PickInfectedHost(rng)
	sample := tcpSample(100, func(i int, p *packet.Packet) {
		p.SrcIP = src
		p.Seq = uint32(p.DstIP)
	})
	var rec feed.Record
	e.Annotate(&rec, src, sample)
	if rec.Country == "" || rec.ASN == 0 || rec.RDNS == "" || rec.AbuseEmail == "" {
		t.Errorf("annotation incomplete: %+v", rec)
	}
	if rec.Tool != ToolMirai {
		t.Errorf("tool = %q, want Mirai fingerprint", rec.Tool)
	}
	if rec.Benign {
		t.Error("residential host marked benign")
	}
	if len(rec.TargetPorts) == 0 || rec.ScanRatePPS <= 0 {
		t.Errorf("flow stats missing: %+v", rec)
	}

	// A research scanner must come out Benign.
	scanIP, _ := reg.PickResearchScanner(rng)
	var rec2 feed.Record
	e.Annotate(&rec2, scanIP, tcpSample(10, func(i int, p *packet.Packet) { p.SrcIP = scanIP }))
	if !rec2.Benign {
		t.Errorf("research scanner not benign: rdns=%q", rec2.RDNS)
	}
}

func TestAnnotateUnallocated(t *testing.T) {
	reg := registry.Build(registry.Config{Seed: 4, Blocks: 64})
	e := New(reg)
	var rec feed.Record
	// The telescope's own space is never allocated.
	e.Annotate(&rec, packet.MustParseIP("10.0.0.1"), nil)
	if rec.Country != "" || rec.Benign {
		t.Errorf("unallocated annotation should stay empty: %+v", rec)
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
