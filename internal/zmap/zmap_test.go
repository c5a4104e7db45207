package zmap

import (
	"sync/atomic"
	"testing"

	"exiot/internal/packet"
	"exiot/internal/simnet"
)

// fakeProber is a deterministic in-test Internet. ScanBatch probes from
// multiple workers, so the query counter is atomic.
type fakeProber struct {
	open    map[packet.IP]map[uint16]string // ip -> port -> banner
	proto   string
	queries atomic.Int64
}

func (f *fakeProber) ProbePort(ip packet.IP, port uint16) bool {
	f.queries.Add(1)
	_, ok := f.open[ip][port]
	return ok
}

func (f *fakeProber) GrabBanner(ip packet.IP, port uint16) (string, string, bool) {
	b, ok := f.open[ip][port]
	if !ok {
		return "", "", false
	}
	return b, f.proto, true
}

func TestTableIPorts(t *testing.T) {
	// E1: the scan module must target 50 ports and speak 16 protocols.
	if len(Ports) != 50 {
		t.Errorf("port list has %d entries, want 50 (Table I)", len(Ports))
	}
	seen := map[uint16]bool{}
	for _, p := range Ports {
		if seen[p] {
			t.Errorf("duplicate port %d", p)
		}
		seen[p] = true
	}
	// Spot-check the Table I ports that matter most downstream.
	for _, p := range []uint16{80, 23, 2323, 8080, 7547, 5555, 554, 8291, 81, 47808, 502, 1911, 20000, 102, 5060} {
		if !seen[p] {
			t.Errorf("Table I port %d missing", p)
		}
	}
	if len(Protocols) != 16 {
		t.Errorf("protocol list has %d entries, want 16 (Table I)", len(Protocols))
	}
}

func TestScanHost(t *testing.T) {
	ip := packet.MustParseIP("203.0.113.50")
	f := &fakeProber{
		proto: "http",
		open: map[packet.IP]map[uint16]string{
			ip: {80: "HTTP/1.1 200 OK\r\nServer: Boa/0.94.13", 23: ""},
		},
	}
	s := NewScanner(f)
	res := s.ScanHost(ip)
	if len(res.OpenPorts) != 2 {
		t.Fatalf("open ports = %v, want [80 23] in some order", res.OpenPorts)
	}
	// Port 23's banner is empty, so only one banner is captured.
	if len(res.Banners) != 1 || res.Banners[0].Port != 80 {
		t.Fatalf("banners = %+v", res.Banners)
	}
	if !res.HasBanner() {
		t.Error("HasBanner() = false")
	}
	if got := res.BannerTexts(); len(got) != 1 || got[0] == "" {
		t.Errorf("BannerTexts() = %v", got)
	}
	if s.ProbesSent() != int64(len(Ports)) {
		t.Errorf("ProbesSent() = %d, want %d", s.ProbesSent(), len(Ports))
	}
}

func TestScanHostClosed(t *testing.T) {
	f := &fakeProber{open: map[packet.IP]map[uint16]string{}}
	s := NewScanner(f)
	res := s.ScanHost(packet.MustParseIP("203.0.113.51"))
	if len(res.OpenPorts) != 0 || res.HasBanner() {
		t.Errorf("closed host produced %+v", res)
	}
}

func TestScanBatchOrderAndParallelism(t *testing.T) {
	ips := make([]packet.IP, 100)
	open := map[packet.IP]map[uint16]string{}
	for i := range ips {
		ips[i] = packet.IP(0xC0000200 + uint32(i)) // 192.0.2.x
		if i%3 == 0 {
			open[ips[i]] = map[uint16]string{80: "banner"}
		}
	}
	f := &fakeProber{open: open, proto: "http"}
	s := NewScanner(f)
	out := s.ScanBatch(ips)
	if len(out) != len(ips) {
		t.Fatalf("batch returned %d results", len(out))
	}
	for i := range out {
		if out[i].IP != ips[i] {
			t.Fatalf("result %d out of order: %v", i, out[i].IP)
		}
		wantOpen := i%3 == 0
		if (len(out[i].OpenPorts) > 0) != wantOpen {
			t.Errorf("host %d: open=%v want %v", i, out[i].OpenPorts, wantOpen)
		}
	}
}

func TestScanBatchEmpty(t *testing.T) {
	s := NewScanner(&fakeProber{})
	if out := s.ScanBatch(nil); len(out) != 0 {
		t.Errorf("empty batch returned %d results", len(out))
	}
}

func TestCustomPorts(t *testing.T) {
	ip := packet.MustParseIP("203.0.113.52")
	f := &fakeProber{
		proto: "telnet",
		open:  map[packet.IP]map[uint16]string{ip: {23: "login: "}},
	}
	s := &Scanner{prober: f, ports: []uint16{23}}
	res := s.ScanHost(ip)
	if len(res.OpenPorts) != 1 || res.OpenPorts[0] != 23 {
		t.Errorf("custom-port scan = %+v", res)
	}
	if n := f.queries.Load(); n != 1 {
		t.Errorf("probed %d ports, want 1", n)
	}
}

func TestPortProtocolMapping(t *testing.T) {
	cases := map[uint16]string{
		80: "http", 8080: "http", 443: "https", 23: "telnet", 2323: "telnet",
		22: "ssh", 21: "ftp", 554: "rtsp", 7547: "cwmp", 445: "smb",
		502: "modbus", 47808: "bacnet", 1911: "fox", 5060: "sip",
		20000: "dnp3", 12345: "tcp",
	}
	for port, want := range cases {
		if got := PortProtocol(port); got != want {
			t.Errorf("PortProtocol(%d) = %q, want %q", port, got, want)
		}
	}
}

// TestAgainstWorld exercises the scanner against the real simulated
// Internet: every banner it brings back must have come from a live,
// reachable host.
func TestAgainstWorld(t *testing.T) {
	cfg := simnet.DefaultConfig(30)
	cfg.NumInfected = 200
	cfg.NumNonIoT = 20
	w := simnet.NewWorld(cfg)
	s := NewScanner(w)

	var ips []packet.IP
	for _, h := range w.Hosts() {
		ips = append(ips, h.IP)
	}
	results := s.ScanBatch(ips)
	withBanner := 0
	for i, res := range results {
		if res.HasBanner() {
			withBanner++
			for _, b := range res.Banners {
				if b.Protocol == "" {
					t.Errorf("host %d: banner without protocol", i)
				}
			}
		}
	}
	if withBanner == 0 {
		t.Error("no banners grabbed from an entire world; training would starve")
	}
	// The paper's limitation: banner-returning hosts are a small minority.
	if frac := float64(withBanner) / float64(len(ips)); frac > 0.5 {
		t.Errorf("banner fraction = %.2f; too reachable to be realistic", frac)
	}
}
