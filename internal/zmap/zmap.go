// Package zmap simulates the active-measurement half of eX-IoT's Scan
// Module: a ZMap-style TCP port scanner over the Table I port set and a
// ZGrab-style application banner grabber over the Table I protocol set.
// Instead of the real Internet, probes are answered by any Prober
// (in practice the simnet world), preserving the code path — batch in,
// open ports and banners out — while replacing the irreproducible
// network side.
package zmap

import (
	"sync"

	"exiot/internal/fanout"
	"exiot/internal/packet"
	"exiot/internal/telemetry"
)

// Telemetry handles for the active-measurement stage (see
// docs/OPERATIONS.md). On a real deployment "closed" covers refused and
// timed-out probes alike — the simulator's prober answers instantly, so
// the two are indistinguishable here.
var (
	metProbes = telemetry.Default().CounterVec("exiot_zmap_probes_total",
		"TCP port probes attempted, by application protocol and outcome (open|closed).",
		"protocol", "result")
	metBanners = telemetry.Default().CounterVec("exiot_zmap_banners_total",
		"Application banner grabs on open ports, by protocol and outcome (grabbed|empty).",
		"protocol", "result")
)

// Prober answers active probes. *simnet.World implements it.
type Prober interface {
	// ProbePort reports whether a TCP connection to ip:port succeeds.
	ProbePort(ip packet.IP, port uint16) bool
	// GrabBanner attempts an application-layer banner grab.
	GrabBanner(ip packet.IP, port uint16) (banner, protocol string, ok bool)
}

// Ports is the scan-module target port list. The first 45 are Table I of
// the paper verbatim (the table repeats 8888; we list it once); the last
// five round the set up to the paper's stated 50 ports with services the
// deployment's device population exposes (Hikvision SDK, JetDirect,
// Huawei UPnP, Realtek UPnP-SOAP, WSD).
var Ports = []uint16{
	80, 22, 443, 21, 23, 8291, 554, 8080, 7547, 8888, 5555,
	81, 631, 8081, 8443, 9000, 2323, 85, 88, 8082, 445,
	8088, 4567, 82, 7000, 83, 84, 8181, 5357, 1900, 8083,
	8089, 8090, 110, 143, 993, 995, 20000, 502, 102, 47808,
	1911, 5060, 5000, 60001,
	8000, 9100, 37215, 52869, 5358,
}

// Protocols is the Table I protocol list the banner grabber speaks.
var Protocols = []string{
	"http", "https", "telnet", "smtp", "imap", "pop3", "ssh", "ftp",
	"cwmp", "smb", "modbus", "bacnet", "fox", "sip", "rtsp", "dnp3",
}

// Banner is one grabbed application banner.
type Banner struct {
	Port     uint16 `json:"port"`
	Protocol string `json:"protocol"`
	Banner   string `json:"banner"`
}

// HostResult is the active-measurement outcome for one scanner IP.
type HostResult struct {
	IP        packet.IP `json:"-"`
	OpenPorts []uint16  `json:"open_ports,omitempty"`
	Banners   []Banner  `json:"banners,omitempty"`
}

// HasBanner reports whether any banner was grabbed.
func (r *HostResult) HasBanner() bool { return len(r.Banners) > 0 }

// BannerTexts returns the banner strings (for fingerprint matching).
func (r *HostResult) BannerTexts() []string {
	out := make([]string, len(r.Banners))
	for i, b := range r.Banners {
		out[i] = b.Banner
	}
	return out
}

// Scanner drives port scans and banner grabs against a Prober.
type Scanner struct {
	prober Prober
	ports  []uint16
	// Workers caps ScanBatch's probe concurrency (0 = GOMAXPROCS). The
	// pipeline wires ServerConfig.Workers here so one knob governs the
	// whole back half.
	Workers int

	mu         sync.Mutex
	probesSent int64
}

// NewScanner builds a scanner over the default Table I port set.
func NewScanner(p Prober) *Scanner {
	return &Scanner{prober: p, ports: Ports}
}

// NumPorts returns the number of ports probed per host (trace
// provenance records it alongside each scan's results).
func (s *Scanner) NumPorts() int { return len(s.ports) }

// ScanHost probes every target port on one host and grabs banners from
// the open ones.
func (s *Scanner) ScanHost(ip packet.IP) HostResult {
	res := HostResult{IP: ip}
	for _, port := range s.ports {
		if !s.prober.ProbePort(ip, port) {
			continue
		}
		res.OpenPorts = append(res.OpenPorts, port)
		if banner, bproto, ok := s.prober.GrabBanner(ip, port); ok && banner != "" {
			res.Banners = append(res.Banners, Banner{Port: port, Protocol: bproto, Banner: banner})
		}
	}
	s.mu.Lock()
	s.probesSent += int64(len(s.ports))
	s.mu.Unlock()
	return res
}

// ScanBatch probes a batch of hosts in parallel, preserving input order
// in the result slice, and counts the batch's probe and banner outcomes.
// The scan module buffers up to 100k scanners (or 60 minutes) before
// invoking this.
func (s *Scanner) ScanBatch(ips []packet.IP) []HostResult {
	out := make([]HostResult, len(ips))
	fanout.Run(len(ips), s.Workers, func(_, i int) {
		out[i] = s.ScanHost(ips[i])
	})
	s.count(out)
	return out
}

// count adds a batch's probe and banner outcomes to the counters by
// protocol, once per batch: every port was probed on every host, and an
// open port's grab came back empty unless the host kept its banner. A
// series is created only once it has counted, as when counting per port.
func (s *Scanner) count(results []HostResult) {
	n := map[[3]string]int64{} // {family, protocol, result}
	for _, port := range s.ports {
		n[[3]string{"probe", PortProtocol(port), "closed"}] += int64(len(results))
	}
	for _, r := range results {
		for _, port := range r.OpenPorts {
			proto := PortProtocol(port)
			n[[3]string{"probe", proto, "closed"}]--
			n[[3]string{"probe", proto, "open"}]++
			n[[3]string{"banner", proto, "empty"}]++
		}
		for _, b := range r.Banners {
			n[[3]string{"banner", PortProtocol(b.Port), "empty"}]--
			n[[3]string{"banner", PortProtocol(b.Port), "grabbed"}]++
		}
	}
	vecs := map[string]*telemetry.CounterVec{"probe": metProbes, "banner": metBanners}
	for k, v := range n {
		if v > 0 {
			vecs[k[0]].With(k[1], k[2]).Add(v)
		}
	}
}

// ProbesSent returns the lifetime probe count.
func (s *Scanner) ProbesSent() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.probesSent
}

// PortProtocol guesses the ZGrab protocol for a port (used to decide
// which protocol handler speaks first on connect).
func PortProtocol(port uint16) string {
	switch port {
	case 80, 81, 82, 83, 84, 85, 88, 8000, 8080, 8081, 8082, 8083, 8088,
		8089, 8090, 8181, 9000, 4567, 7000, 5000, 60001, 631, 5357, 49152:
		return "http"
	case 443, 8443:
		return "https"
	case 23, 2323:
		return "telnet"
	case 22:
		return "ssh"
	case 21:
		return "ftp"
	case 554:
		return "rtsp"
	case 7547:
		return "cwmp"
	case 445:
		return "smb"
	case 110, 995:
		return "pop3"
	case 143, 993:
		return "imap"
	case 25, 465, 587:
		return "smtp"
	case 502:
		return "modbus"
	case 47808:
		return "bacnet"
	case 1911:
		return "fox"
	case 5060:
		return "sip"
	case 20000:
		return "dnp3"
	case 102:
		return "s7"
	default:
		return "tcp"
	}
}
