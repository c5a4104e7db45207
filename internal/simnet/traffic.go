package simnet

import (
	"math"
	"math/rand"
	"slices"
	"time"

	"exiot/internal/device"
	"exiot/internal/fanout"
	"exiot/internal/packet"
	"exiot/internal/telemetry"
)

// layerSimnet times generation per hour; items are packets.
var layerSimnet = telemetry.Default().Layer("simnet")

// GenerateHour produces every telescope-observed packet with a timestamp
// in [hour, hour+1h), sorted by time. Generation is deterministic per
// (world, hour) and independent of GOMAXPROCS: each host's rng is seeded
// from (host seed, hour) alone, and the canonical order is (timestamp,
// host index), so the per-host runs fanned out across GOMAXPROCS
// goroutines merge into the same stream at any setting.
func (w *World) GenerateHour(hour time.Time) []packet.Packet {
	start := time.Now()
	hourEnd := hour.Add(time.Hour)
	// Generate per-host time-ordered runs, then k-way merge them keyed by
	// (timestamp, host index): the canonical order, identical to a stable
	// sort of the runs' concatenation but without moving every ~150-byte
	// packet O(n log n) times through a sorter.
	runs := make([][]packet.Packet, len(w.hosts))
	fanout.Run(len(w.hosts), 0, func(_, hi int) {
		runs[hi] = w.generateHost(nil, w.hosts[hi], hour, hourEnd)
	})
	merged := mergeRuns(runs)
	layerSimnet.Done(start, len(merged))
	return merged
}

// mergeRuns k-way merges per-host time-sorted runs into one stream
// ordered by (timestamp, run index) — identical to a stable sort of the
// runs' concatenation.
func mergeRuns(runs [][]packet.Packet) []packet.Packet {
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	if total == 0 {
		return nil
	}

	// Min-heap of run heads, keyed (timestamp, run index).
	type head struct {
		ts  int64
		run int
	}
	less := func(a, b head) bool {
		if a.ts != b.ts {
			return a.ts < b.ts
		}
		return a.run < b.run
	}
	heap := make([]head, 0, len(runs))
	push := func(h head) {
		heap = append(heap, h)
		for i := len(heap) - 1; i > 0; {
			parent := (i - 1) / 2
			if !less(heap[i], heap[parent]) {
				break
			}
			heap[i], heap[parent] = heap[parent], heap[i]
			i = parent
		}
	}
	fixDown := func() {
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			smallest := i
			if l < len(heap) && less(heap[l], heap[smallest]) {
				smallest = l
			}
			if r < len(heap) && less(heap[r], heap[smallest]) {
				smallest = r
			}
			if smallest == i {
				return
			}
			heap[i], heap[smallest] = heap[smallest], heap[i]
			i = smallest
		}
	}

	pos := make([]int, len(runs))
	for ri, r := range runs {
		if len(r) > 0 {
			push(head{ts: r[0].Timestamp.UnixNano(), run: ri})
		}
	}
	out := make([]packet.Packet, 0, total)
	for len(heap) > 0 {
		h := heap[0]
		r := runs[h.run]
		out = append(out, r[pos[h.run]])
		pos[h.run]++
		if pos[h.run] < len(r) {
			heap[0] = head{ts: r[pos[h.run]].Timestamp.UnixNano(), run: h.run}
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		fixDown()
	}
	return out
}

// telescopeShare is the fraction of Internet-wide random-target traffic
// the telescope observes.
func (w *World) telescopeShare() float64 {
	return float64(w.cfg.Telescope.Size()) / math.Pow(2, 32)
}

func (w *World) generateHost(out []packet.Packet, h *Host, from, to time.Time) []packet.Packet {
	rng := rand.New(rand.NewSource(h.seed ^ from.Unix()))
	for _, s := range h.sessions {
		start, end := s.start, s.end
		if start.Before(from) {
			start = from
		}
		if end.After(to) {
			end = to
		}
		if !start.Before(end) {
			continue
		}
		out = w.generateSession(out, h, rng, start, end)
	}
	return out
}

func (w *World) generateSession(out []packet.Packet, h *Host, rng *rand.Rand, start, end time.Time) []packet.Packet {
	// Misconfigured nodes aim at one mistyped telescope address, so the
	// telescope sees their full rate; scanners and backscatter sources
	// spray IPv4 at random, so it sees rate/256.
	observedRate := h.rate * w.telescopeShare()
	if h.Kind == KindMisconfigured {
		observedRate = h.rate
	}
	if observedRate <= 0 {
		return out
	}
	meanGap := 1.0 / observedRate

	// Preallocate for the expected packet count (rate × duration, capped
	// by the per-host-hour budget) instead of growing through repeated
	// append doublings.
	expected := int(observedRate*end.Sub(start).Seconds()) + 1
	if expected > w.cfg.MaxPacketsPerHostHour {
		expected = w.cfg.MaxPacketsPerHostHour
	}
	out = slices.Grow(out, expected)

	gen := newPacketGen(w, h, rng)
	t := start
	count := 0
	for t.Before(end) && count < w.cfg.MaxPacketsPerHostHour {
		out = append(out, gen.next(t))
		count++
		gap := meanGap * (1 + h.jitter*rng.NormFloat64())
		if gap < meanGap*0.05 {
			gap = meanGap * 0.05
		}
		t = t.Add(time.Duration(gap * float64(time.Second)))
	}
	return out
}

// packetGen builds consecutive packets for one host session.
type packetGen struct {
	w   *World
	h   *Host
	rng *rand.Rand

	srcPortBase  uint16
	srcPortSeq   uint16
	ipidSeq      uint16
	zmapPort     uint16 // fixed target port for the current ZMap sweep
	windowIdx    int
	misconfigDst packet.IP
}

func newPacketGen(w *World, h *Host, rng *rand.Rand) *packetGen {
	g := &packetGen{
		w:           w,
		h:           h,
		rng:         rng,
		srcPortBase: uint16(32768 + rng.Intn(16384)),
		ipidSeq:     uint16(rng.Intn(65536)),
		windowIdx:   rng.Intn(len(h.stack.Windows)),
	}
	if h.Profile != nil && h.Profile.Tool == device.ToolZMap {
		g.zmapPort = h.Profile.PickPort(rng)
	}
	if h.Kind == KindMisconfigured {
		g.misconfigDst = randomTelescopeIP(w, rng)
	}
	return g
}

func randomTelescopeIP(w *World, rng *rand.Rand) packet.IP {
	return w.cfg.Telescope.Nth(uint64(rng.Int63n(int64(w.cfg.Telescope.Size()))))
}

func (g *packetGen) next(ts time.Time) packet.Packet {
	switch g.h.Kind {
	case KindInfectedIoT:
		return g.iotScan(ts)
	case KindNonIoTScanner, KindResearchScanner:
		return g.toolScan(ts)
	case KindMisconfigured:
		return g.misconfig(ts)
	case KindBackscatter:
		return g.backscatter(ts)
	default:
		return g.misconfig(ts)
	}
}

// iotScan emits one SYN probe from an infected IoT device.
func (g *packetGen) iotScan(ts time.Time) packet.Packet {
	h, rng := g.h, g.rng
	dst := randomTelescopeIP(g.w, rng)
	p := packet.Packet{
		Timestamp: ts,
		TOS:       h.stack.TOS,
		TTL:       h.stack.TTL - h.hops,
		Proto:     packet.TCP,
		SrcIP:     h.IP,
		DstIP:     dst,
		DstPort:   h.Family.PickPort(rng),
		Flags:     packet.FlagSYN,
	}
	if h.Family.SeqEqualsDst {
		// Mirai's raw-socket scanner: seq = destination address, random
		// high source port, random window, no TCP options.
		p.Seq = uint32(dst)
		p.SrcPort = uint16(1024 + rng.Intn(64511))
		p.Window = uint16(1024 + rng.Intn(64511))
		g.ipidSeq = uint16(rng.Intn(65536))
		p.ID = g.ipidSeq
	} else {
		// connect()-based scanners inherit the embedded stack.
		p.Seq = rng.Uint32()
		g.srcPortSeq++
		p.SrcPort = g.srcPortBase + g.srcPortSeq%8192
		p.Window = h.stack.Windows[g.windowIdx]
		g.ipidSeq++
		p.ID = g.ipidSeq
		p.Options = stackOptions(h.stack)
	}
	p.Normalize()
	return p
}

// toolScan emits one probe from a scanning toolchain (ZMap, Masscan,
// Nmap, ...), reproducing each tool's published on-wire fingerprint.
func (g *packetGen) toolScan(ts time.Time) packet.Packet {
	h, rng := g.h, g.rng
	dst := randomTelescopeIP(g.w, rng)
	p := packet.Packet{
		Timestamp: ts,
		TTL:       h.stack.TTL - h.hops,
		Proto:     packet.TCP,
		SrcIP:     h.IP,
		DstIP:     dst,
		Flags:     packet.FlagSYN,
	}
	switch h.Profile.Tool {
	case device.ToolZMap:
		// ZMap: constant IP ID 54321, no TCP options, window 65535,
		// one port per sweep, validation-encoded sequence number.
		p.ID = 54321
		p.DstPort = g.zmapPort
		p.SrcPort = g.srcPortBase
		p.Seq = uint32(dst)*2654435761 + 12345
		p.Window = 65535
	case device.ToolMasscan:
		// Masscan: ip.id = dstIP ^ dstPort ^ seq (low 16 bits).
		p.DstPort = h.Profile.PickPort(rng)
		p.SrcPort = g.srcPortBase
		p.Seq = rng.Uint32()
		p.ID = uint16(uint32(dst)) ^ p.DstPort ^ uint16(p.Seq)
		p.Window = 1024
	case device.ToolNmap:
		// Nmap SYN scan: window 1024, MSS 1460 option only.
		p.DstPort = h.Profile.PickPort(rng)
		g.srcPortSeq++
		p.SrcPort = g.srcPortBase + g.srcPortSeq%4096
		p.Seq = rng.Uint32()
		p.Window = 1024
		p.Options = packet.TCPOptions{HasMSS: true, MSS: 1460}
		g.ipidSeq++
		p.ID = g.ipidSeq
	default:
		// Unicornscan / custom tools: full OS stack.
		p.DstPort = h.Profile.PickPort(rng)
		g.srcPortSeq++
		p.SrcPort = g.srcPortBase + g.srcPortSeq%8192
		p.Seq = rng.Uint32()
		p.Window = h.stack.Windows[g.windowIdx]
		p.Options = stackOptions(h.stack)
		g.ipidSeq++
		p.ID = g.ipidSeq
	}
	p.Normalize()
	return p
}

// misconfig emits traffic from a malfunctioning node: repeated UDP
// datagrams (e.g. DNS retries) to one mistyped address.
func (g *packetGen) misconfig(ts time.Time) packet.Packet {
	h, rng := g.h, g.rng
	p := packet.Packet{
		Timestamp:  ts,
		TTL:        h.stack.TTL - h.hops,
		Proto:      packet.UDP,
		SrcIP:      h.IP,
		DstIP:      g.misconfigDst,
		SrcPort:    g.srcPortBase,
		DstPort:    53,
		PayloadLen: uint16(30 + rng.Intn(40)),
	}
	p.Normalize()
	return p
}

// backscatter emits one response a DDoS victim sends to a spoofed source
// that happens to be a telescope address.
func (g *packetGen) backscatter(ts time.Time) packet.Packet {
	h, rng := g.h, g.rng
	dst := randomTelescopeIP(g.w, rng)
	p := packet.Packet{
		Timestamp: ts,
		TTL:       h.stack.TTL - h.hops,
		SrcIP:     h.IP,
		DstIP:     dst,
	}
	switch rng.Intn(10) {
	case 0: // ICMP port unreachable
		p.Proto = packet.ICMP
		p.ICMPType = packet.ICMPDestUnreach
		p.ICMPCode = packet.ICMPCodePortUnreach
	case 1, 2, 3: // RST(+ACK)
		p.Proto = packet.TCP
		p.SrcPort = 80
		p.DstPort = uint16(1024 + rng.Intn(64511))
		p.Flags = packet.FlagRST | packet.FlagACK
		p.Seq = rng.Uint32()
	default: // SYN-ACK
		p.Proto = packet.TCP
		if rng.Intn(2) == 0 {
			p.SrcPort = 443
		} else {
			p.SrcPort = 80
		}
		p.DstPort = uint16(1024 + rng.Intn(64511))
		p.Flags = packet.FlagSYN | packet.FlagACK
		p.Seq = rng.Uint32()
		p.Ack = rng.Uint32()
		p.Window = h.stack.Windows[g.windowIdx]
		p.Options = stackOptions(h.stack)
	}
	p.Normalize()
	return p
}

func stackOptions(s device.StackProfile) packet.TCPOptions {
	o := packet.TCPOptions{}
	if s.MSS != 0 {
		o.HasMSS = true
		o.MSS = s.MSS
	}
	if s.UseWScale {
		o.HasWScale = true
		o.WScale = s.WScale
	}
	o.SACKPermitted = s.UseSACKOK
	o.Timestamp = s.UseTS
	o.NOP = s.UseNOP
	return o
}
