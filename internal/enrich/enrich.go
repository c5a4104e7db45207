// Package enrich implements the lookup half of eX-IoT's Annotate Module:
// geolocation (MaxMind substitute), WHOIS and reverse DNS (from the
// synthetic registry), packet-level fingerprinting of scanning toolchains
// (ZMap, Masscan, Nmap) and of IoT malware scanners (Mirai's seq==dstIP),
// per-flow traffic statistics (targeted ports, scan rate, address
// repetition ratio), and the rDNS-based Benign labeling of known research
// scanners.
package enrich

import (
	"strings"

	"exiot/internal/feed"
	"exiot/internal/packet"
	"exiot/internal/registry"
	"exiot/internal/telemetry"
)

// Telemetry handles for the enrichment stage (see docs/OPERATIONS.md).
var metEnrichLookups = telemetry.Default().CounterVec("exiot_enrich_lookups_total",
	"Registry lookups during record enrichment, by outcome (hit|miss).", "result")

// benignRDNSSuffixes identify legitimate security companies and research
// institutions (paper: "University of Michigan, Shodan, Censys, Rapid7,
// etc.").
var benignRDNSSuffixes = []string{
	"census.umich.edu",
	"shodan.io",
	"rapid7.com",
	"shadowserver.org",
	"binaryedge.ninja",
	"stretchoid.com",
	"censys-scanner.com",
}

// IsBenignRDNS reports whether a reverse-DNS name belongs to a known
// research scanning organization.
func IsBenignRDNS(rdns string) bool {
	if rdns == "" {
		return false
	}
	for _, suffix := range benignRDNSSuffixes {
		if strings.HasSuffix(rdns, suffix) {
			return true
		}
	}
	return false
}

// Tool names produced by packet-level fingerprinting.
const (
	ToolZMap    = "ZMap"
	ToolMasscan = "Masscan"
	ToolNmap    = "Nmap"
	ToolMirai   = "Mirai-like scanner"
)

// FingerprintTool inspects a sampled packet sequence for the on-wire
// signatures of known scan toolchains and IoT malware scanners. An empty
// string means no known signature.
func FingerprintTool(sample []packet.Packet) string {
	if len(sample) == 0 {
		return ""
	}
	tcp := 0
	zmapID := 0
	masscanID := 0
	miraiSeq := 0
	nmapShape := 0
	for i := range sample {
		p := &sample[i]
		if p.Proto != packet.TCP {
			continue
		}
		tcp++
		if p.ID == 54321 {
			zmapID++
		}
		if p.ID == uint16(uint32(p.DstIP))^p.DstPort^uint16(p.Seq) {
			masscanID++
		}
		if p.Seq == uint32(p.DstIP) {
			miraiSeq++
		}
		if p.Window == 1024 && p.Options.HasMSS && p.Options.MSS == 1460 &&
			!p.Options.HasWScale && !p.Options.Timestamp {
			nmapShape++
		}
	}
	if tcp == 0 {
		return ""
	}
	threshold := tcp * 9 / 10
	switch {
	case zmapID >= threshold:
		return ToolZMap
	case miraiSeq >= threshold:
		return ToolMirai
	case masscanID >= threshold:
		return ToolMasscan
	case nmapShape >= threshold:
		return ToolNmap
	default:
		return ""
	}
}

// FlowStats summarizes a sampled flow's traffic behaviour.
type FlowStats struct {
	// TargetPorts counts packets per destination port.
	TargetPorts map[uint16]int
	// RatePPS is the observed packet rate across the sample.
	RatePPS float64
	// AddrRepetition is the ratio of all packets to unique destinations
	// (1.0 = every packet hit a fresh address).
	AddrRepetition float64
}

// ComputeFlowStats derives FlowStats from a sampled packet sequence.
func ComputeFlowStats(sample []packet.Packet) FlowStats {
	st := FlowStats{TargetPorts: make(map[uint16]int, 8)}
	if len(sample) == 0 {
		return st
	}
	// Distinct destinations are counted on a sorted copy, which stays on
	// the stack for samples of up to 256 packets; a per-flow set cost
	// more than the rest of the annotation.
	dsts := make([]packet.IP, 0, 256)
	for i := range sample {
		st.TargetPorts[sample[i].DstPort]++
		dsts = append(dsts, sample[i].DstIP)
	}
	tmp := make([]packet.IP, 256)
	if len(dsts) > len(tmp) {
		tmp = make([]packet.IP, len(dsts))
	}
	st.AddrRepetition = float64(len(sample)) / float64(countDistinct(dsts, tmp[:len(dsts)]))
	if span := sample[len(sample)-1].Timestamp.Sub(sample[0].Timestamp).Seconds(); span > 0 {
		st.RatePPS = float64(len(sample)-1) / span
	}
	return st
}

// countDistinct returns the number of distinct addresses in ips, which
// it sorts by LSD radix, a byte at a time, with tmp (of the same length)
// as scratch. Random scan targets make a comparison sort mispredict on
// nearly every comparison; the radix passes do not branch on the keys.
func countDistinct(ips, tmp []packet.IP) int {
	var count [4][256]uint32
	for _, ip := range ips {
		count[0][uint8(ip)]++
		count[1][uint8(ip>>8)]++
		count[2][uint8(ip>>16)]++
		count[3][uint8(ip>>24)]++
	}
	for d := range count {
		shift := 8 * d
		c := &count[d]
		if c[uint8(ips[0]>>shift)] == uint32(len(ips)) {
			continue // every address shares this byte
		}
		var sum uint32
		for b := range c {
			sum, c[b] = sum+c[b], sum
		}
		for _, ip := range ips {
			b := uint8(ip >> shift)
			tmp[c[b]] = ip
			c[b]++
		}
		ips, tmp = tmp, ips
	}
	unique := 1
	for i := 1; i < len(ips); i++ {
		if ips[i] != ips[i-1] {
			unique++
		}
	}
	return unique
}

// Enricher annotates feed records from the registry and sampled traffic.
type Enricher struct {
	reg *registry.Registry
}

// New builds an enricher over the given registry.
func New(reg *registry.Registry) *Enricher {
	return &Enricher{reg: reg}
}

// Annotate fills rec's geo/WHOIS/rDNS fields, tool fingerprint, traffic
// statistics, and Benign flag from the source address and sampled flow.
func (e *Enricher) Annotate(rec *feed.Record, src packet.IP, sample []packet.Packet) {
	if info, ok := e.reg.Lookup(src); ok {
		metEnrichLookups.With("hit").Inc()
		rec.Country = info.Country
		rec.CountryCode = info.CountryCode
		rec.Continent = info.Continent
		rec.City = info.City
		rec.Lat = info.Lat
		rec.Lon = info.Lon
		rec.ASN = info.ASN
		rec.ISP = info.ISP
		rec.Org = info.Org
		rec.Sector = info.Sector
		rec.RDNS = info.RDNS
		rec.Domain = info.Domain
		rec.AbuseEmail = info.AbuseEmail
	} else {
		metEnrichLookups.With("miss").Inc()
	}
	if tool := FingerprintTool(sample); tool != "" {
		rec.Tool = tool
	}
	st := ComputeFlowStats(sample)
	rec.TargetPorts = st.TargetPorts
	rec.ScanRatePPS = st.RatePPS
	rec.AddrRepetition = st.AddrRepetition
	rec.Benign = IsBenignRDNS(rec.RDNS)
}
