package simnet

import (
	"testing"
	"time"

	"exiot/internal/device"
	"exiot/internal/packet"
)

func smallConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.NumInfected = 60
	cfg.NumNonIoT = 15
	cfg.NumResearch = 3
	cfg.NumMisconfig = 10
	cfg.NumBackscat = 4
	cfg.MaxPacketsPerHostHour = 1500
	return cfg
}

func TestWorldDeterministic(t *testing.T) {
	w1 := NewWorld(smallConfig(5))
	w2 := NewWorld(smallConfig(5))
	if len(w1.Hosts()) != len(w2.Hosts()) {
		t.Fatalf("host counts differ: %d vs %d", len(w1.Hosts()), len(w2.Hosts()))
	}
	hour := w1.Start()
	p1 := w1.GenerateHour(hour)
	p2 := w2.GenerateHour(hour)
	if len(p1) != len(p2) {
		t.Fatalf("packet counts differ: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("packet %d differs", i)
		}
	}
}

func TestPopulationCounts(t *testing.T) {
	cfg := smallConfig(6)
	w := NewWorld(cfg)
	kinds := map[HostKind]int{}
	for _, h := range w.hosts {
		kinds[h.Kind]++
	}
	if got := kinds[KindInfectedIoT]; got != cfg.NumInfected {
		t.Errorf("infected = %d, want %d", got, cfg.NumInfected)
	}
	if got := kinds[KindNonIoTScanner]; got != cfg.NumNonIoT {
		t.Errorf("non-iot = %d, want %d", got, cfg.NumNonIoT)
	}
	if got := kinds[KindResearchScanner]; got != cfg.NumResearch {
		t.Errorf("research = %d, want %d", got, cfg.NumResearch)
	}
}

func TestGeneratedPacketsSane(t *testing.T) {
	w := NewWorld(smallConfig(7))
	hour := w.Start().Add(6 * time.Hour)
	pkts := w.GenerateHour(hour)
	if len(pkts) == 0 {
		t.Fatal("no packets generated")
	}
	prev := time.Time{}
	for i := range pkts {
		p := &pkts[i]
		if !telescope.Contains(p.DstIP) {
			t.Fatalf("packet %d dst %v outside telescope", i, p.DstIP)
		}
		if telescope.Contains(p.SrcIP) {
			t.Fatalf("packet %d src %v inside telescope", i, p.SrcIP)
		}
		if p.Timestamp.Before(hour) || !p.Timestamp.Before(hour.Add(time.Hour)) {
			t.Fatalf("packet %d timestamp %v outside hour", i, p.Timestamp)
		}
		if p.Timestamp.Before(prev) {
			t.Fatalf("packet %d out of order", i)
		}
		prev = p.Timestamp
		if p.TTL == 0 {
			t.Fatalf("packet %d zero TTL", i)
		}
	}
}

func TestMiraiFingerprintOnWire(t *testing.T) {
	w := NewWorld(smallConfig(8))
	var mirai *Host
	for _, h := range w.Hosts() {
		if h.Kind == KindInfectedIoT && h.Family.SeqEqualsDst {
			mirai = h
			break
		}
	}
	if mirai == nil {
		t.Skip("no Mirai-lineage host in this seed")
	}
	found := false
	for hr := 0; hr < 24 && !found; hr++ {
		for _, p := range w.GenerateHour(w.Start().Add(time.Duration(hr) * time.Hour)) {
			if p.SrcIP != mirai.IP {
				continue
			}
			found = true
			if p.Seq != uint32(p.DstIP) {
				t.Fatalf("Mirai packet seq=%d, want %d (dst %v)", p.Seq, uint32(p.DstIP), p.DstIP)
			}
			if p.Options != (packet.TCPOptions{}) {
				t.Fatal("Mirai raw scanner must not set TCP options")
			}
		}
	}
	if !found {
		t.Skip("Mirai host inactive during simulated span")
	}
}

func TestZMapFingerprintOnWire(t *testing.T) {
	w := NewWorld(smallConfig(9))
	var zmapHost *Host
	for _, h := range w.Hosts() {
		if h.Kind == KindResearchScanner {
			zmapHost = h
			break
		}
	}
	if zmapHost == nil {
		t.Fatal("no research scanner")
	}
	pkts := w.GenerateHour(w.Start())
	n := 0
	ports := map[uint16]bool{}
	for _, p := range pkts {
		if p.SrcIP != zmapHost.IP {
			continue
		}
		n++
		if p.ID != 54321 {
			t.Fatalf("ZMap ip.id = %d, want 54321", p.ID)
		}
		if p.Window != 65535 {
			t.Fatalf("ZMap window = %d, want 65535", p.Window)
		}
		if p.Options != (packet.TCPOptions{}) {
			t.Fatal("ZMap must not set TCP options")
		}
		ports[p.DstPort] = true
	}
	if n == 0 {
		t.Fatal("research scanner generated no packets (should run around the clock)")
	}
	if len(ports) != 1 {
		t.Errorf("ZMap sweep targeted %d ports in one hour, want 1", len(ports))
	}
}

func TestBackscatterIsFilterable(t *testing.T) {
	w := NewWorld(smallConfig(10))
	start := w.Start()
	seen := 0
	for hr := 0; hr < 24 && seen == 0; hr++ {
		for _, p := range w.GenerateHour(start.Add(time.Duration(hr) * time.Hour)) {
			h, ok := w.HostByIP(p.SrcIP)
			if !ok || h.Kind != KindBackscatter {
				continue
			}
			seen++
			if !p.IsBackscatter() {
				t.Fatalf("backscatter packet not classified as backscatter: %+v", p)
			}
		}
	}
	if seen == 0 {
		t.Skip("no backscatter activity in span")
	}
}

func TestIoTScansSlowerThanTools(t *testing.T) {
	w := NewWorld(smallConfig(11))
	counts := map[HostKind]int{}
	hosts := map[HostKind]map[packet.IP]bool{
		KindInfectedIoT:   {},
		KindNonIoTScanner: {},
	}
	for hr := 0; hr < 6; hr++ {
		for _, p := range w.GenerateHour(w.Start().Add(time.Duration(hr) * time.Hour)) {
			h, ok := w.HostByIP(p.SrcIP)
			if !ok {
				continue
			}
			if m, tracked := hosts[h.Kind]; tracked {
				counts[h.Kind]++
				m[p.SrcIP] = true
			}
		}
	}
	if counts[KindInfectedIoT] == 0 || counts[KindNonIoTScanner] == 0 {
		t.Skip("not enough activity in 6h window")
	}
	iotPer := float64(counts[KindInfectedIoT]) / float64(len(hosts[KindInfectedIoT]))
	toolPer := float64(counts[KindNonIoTScanner]) / float64(len(hosts[KindNonIoTScanner]))
	if iotPer >= toolPer {
		t.Errorf("IoT per-host volume (%.0f) should be below tool volume (%.0f)", iotPer, toolPer)
	}
}

func TestProbeSurface(t *testing.T) {
	w := NewWorld(smallConfig(12))
	reachable := 0
	for _, h := range w.Hosts() {
		if h.Kind != KindInfectedIoT || h.behindNAT || h.portsClosed {
			continue
		}
		for port := range h.services {
			reachable++
			if !w.ProbePort(h.IP, port) {
				t.Fatalf("open port %d on %v refused the probe", port, h.IP)
			}
			banner, proto, ok := w.GrabBanner(h.IP, port)
			if !ok {
				t.Fatalf("open port %d on %v refused banner grab", port, h.IP)
			}
			if proto == "" {
				t.Fatalf("empty protocol for %v:%d (banner %q)", h.IP, port, banner)
			}
			break
		}
	}
	if reachable == 0 {
		t.Error("no infected host is probe-reachable; banner training would starve")
	}
	// Unknown address never answers.
	if w.ProbePort(packet.MustParseIP("8.8.8.8"), 80) {
		t.Error("unallocated host answered probe")
	}
	if _, _, ok := w.GrabBanner(packet.MustParseIP("8.8.8.8"), 80); ok {
		t.Error("unallocated host returned banner")
	}
}

func TestMisconfigBurstsAreShort(t *testing.T) {
	w := NewWorld(smallConfig(14))
	for _, h := range w.Hosts() {
		if h.Kind != KindMisconfigured {
			continue
		}
		if len(h.sessions) != 1 {
			t.Fatalf("misconfig host has %d sessions, want 1", len(h.sessions))
		}
		d := h.sessions[0].end.Sub(h.sessions[0].start)
		if d >= time.Minute {
			t.Errorf("misconfig burst %v too long (TRW duration rule would admit it)", d)
		}
	}
}

func TestVendorBreakdownShape(t *testing.T) {
	cfg := DefaultConfig(15)
	cfg.NumInfected = 2000
	w := NewWorld(cfg)
	vb := map[string]int{}
	for _, h := range w.hosts {
		if h.Kind == KindInfectedIoT {
			vb[h.Model.Vendor]++
		}
	}
	if vb["MikroTik"] == 0 {
		t.Fatal("no MikroTik devices")
	}
	for vendor, n := range vb {
		if vendor != "MikroTik" && n > vb["MikroTik"] {
			t.Errorf("vendor %s (%d) outnumbers MikroTik (%d)", vendor, n, vb["MikroTik"])
		}
	}
}

func TestResearchScannerIdentity(t *testing.T) {
	w := NewWorld(smallConfig(16))
	for _, h := range w.Hosts() {
		if h.Kind != KindResearchScanner {
			continue
		}
		info, ok := w.Registry().Lookup(h.IP)
		if !ok || !info.Research {
			t.Errorf("research scanner %v not resolvable as research org", h.IP)
		}
		if h.Profile.Tool != device.ToolZMap {
			t.Errorf("research scanner should run ZMap, got %s", h.Profile.Tool)
		}
	}
}
