// Package simnet simulates the Internet as seen by a /8 network telescope.
// It is the substitute for the CAIDA UCSD telescope feed the paper
// consumes: a deterministic world of infected IoT devices (scanning with
// malware-family-specific behaviour), non-IoT scanning hosts (research
// scanners and compromised servers), misconfigured nodes, and DDoS
// backscatter sources. The world answers active probes too, standing in
// for the real Internet that ZMap/ZGrab would scan.
//
// The detection pipeline must never read the world's ground truth — it
// only consumes generated packets and probe responses. Ground truth
// accessors exist solely for evaluation harnesses.
package simnet

import (
	"math/rand"
	"sort"
	"strings"
	"time"

	"exiot/internal/device"
	"exiot/internal/packet"
	"exiot/internal/registry"
)

// HostKind classifies simulated hosts.
type HostKind int

// Host kinds present in telescope traffic.
const (
	KindInfectedIoT HostKind = iota + 1
	KindNonIoTScanner
	KindResearchScanner
	KindMisconfigured
	KindBackscatter
)

// String returns a human-readable kind name.
func (k HostKind) String() string {
	switch k {
	case KindInfectedIoT:
		return "infected-iot"
	case KindNonIoTScanner:
		return "non-iot-scanner"
	case KindResearchScanner:
		return "research-scanner"
	case KindMisconfigured:
		return "misconfigured"
	case KindBackscatter:
		return "backscatter"
	default:
		return "unknown"
	}
}

// session is one contiguous scanning window of a host.
type session struct {
	start, end time.Time
}

// service is one instantiated network service on a host.
type service struct {
	protocol string
	banner   string
}

// Host is one simulated Internet host.
type Host struct {
	IP   packet.IP
	Kind HostKind

	// Ground truth for infected IoT devices.
	Model    *device.Model
	Firmware string
	Family   *device.MalwareFamily

	// Ground truth for non-IoT scanners.
	Profile     *device.NonIoTProfile
	ResearchOrg string

	// rate is the host's Internet-wide scan rate in pps; the telescope
	// observes rate/256 of it (a /8 covers 1/256 of IPv4).
	rate   float64
	jitter float64
	stack  device.StackProfile

	// Probe reachability.
	behindNAT   bool
	portsClosed bool
	services    map[uint16]service

	sessions []session
	seed     int64
	hops     uint8 // path length to the telescope, fixed per host
}

// ActiveDuring reports whether any scan session overlaps [from, to).
func (h *Host) ActiveDuring(from, to time.Time) bool {
	for _, s := range h.sessions {
		if s.start.Before(to) && s.end.After(from) {
			return true
		}
	}
	return false
}

// FirstActiveIn returns the start of the host's first scan session
// overlapping [from, to).
func (h *Host) FirstActiveIn(from, to time.Time) (time.Time, bool) {
	for _, s := range h.sessions {
		if s.start.Before(to) && s.end.After(from) {
			if s.start.Before(from) {
				return from, true
			}
			return s.start, true
		}
	}
	return time.Time{}, false
}

// Rate returns the host's Internet-wide scan rate in packets per second
// (ground truth; evaluation only).
func (h *Host) Rate() float64 { return h.rate }

// ActiveDurationIn returns the total time the host spends scanning inside
// [from, to).
func (h *Host) ActiveDurationIn(from, to time.Time) time.Duration {
	var total time.Duration
	for _, s := range h.sessions {
		start, end := s.start, s.end
		if start.Before(from) {
			start = from
		}
		if end.After(to) {
			end = to
		}
		if start.Before(end) {
			total += end.Sub(start)
		}
	}
	return total
}

// IsIoT reports the ground-truth IoT label of the host.
func (h *Host) IsIoT() bool { return h.Kind == KindInfectedIoT }

// SeqEqualsDst reports whether the host's scanner carries the Mirai
// seq==dstIP fingerprint third parties key on.
func (h *Host) SeqEqualsDst() bool {
	return h.Family != nil && h.Family.SeqEqualsDst
}

// TargetsAnyPort reports whether the host's scanning behaviour covers at
// least one of the given ports.
func (h *Host) TargetsAnyPort(ports map[uint16]bool) bool {
	switch {
	case h.Family != nil:
		for _, pw := range h.Family.Ports {
			if ports[pw.Port] {
				return true
			}
		}
	case h.Profile != nil:
		for _, pw := range h.Profile.Ports {
			if ports[pw.Port] {
				return true
			}
		}
	}
	return false
}

// MiraiLineage reports whether the host is infected with Mirai or one of
// its descendants.
func (h *Host) MiraiLineage() bool {
	return h.Family != nil && h.Family.MiraiLineage
}

// Config parameterizes world construction. The zero value is unusable;
// use DefaultConfig as a baseline.
type Config struct {
	Seed     int64
	Registry *registry.Registry
	// Telescope is the monitored dark address space.
	Telescope packet.Prefix
	// Start and Days bound the simulated period.
	Start time.Time
	Days  int

	// Population sizes.
	NumInfected  int
	NumNonIoT    int
	NumResearch  int
	NumMisconfig int
	NumBackscat  int

	// MaxPacketsPerHostHour caps per-host hourly volume to bound memory;
	// the cap truncates a session early rather than thinning it, so
	// inter-arrival statistics (a classifier feature) stay intact.
	MaxPacketsPerHostHour int

	// NATFraction and ClosedFraction control active-probe reachability of
	// infected devices. Defaults reproduce the paper's §VI observation
	// that <10 % of infected hosts return banners.
	NATFraction    float64
	ClosedFraction float64
	// GenericBannerFraction is the share of banner-returning IoT devices
	// whose banners carry no device-identifying text (paper: only ~3 % of
	// infected hosts yield textual details, i.e. ~30 % of the ~10 %).
	GenericBannerFraction float64
	// ServerBannerFraction is the share of infected IoT devices that run
	// stock server software (OpenSSH/nginx from a full distro image —
	// common on gateways and NAS boxes). Their banners read non-IoT, so
	// banner-derived training labels carry realistic noise: this is a
	// driver of the paper's coverage gap (recall 77 %).
	ServerBannerFraction float64
	// ToolEmbeddedBannerFraction is the converse: non-IoT scan boxes
	// (cheap VPSes) exposing embedded-flavored software (dropbear, Boa),
	// which banner rules mislabel IoT — a driver of the precision gap.
	ToolEmbeddedBannerFraction float64

	// Emerging, when set, injects a previously unseen botnet
	// (device.EmergingFamily) partway through the span — the drift the
	// daily retrain must adapt to.
	Emerging *EmergingConfig
}

// EmergingConfig parameterizes a mid-deployment botnet emergence.
type EmergingConfig struct {
	// StartDay is the zero-based day the new family activates.
	StartDay int
	// Count is how many devices it infects.
	Count int
}

// DefaultConfig returns a laptop-scale world configuration.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:                       seed,
		Telescope:                  packet.MustParsePrefix("10.0.0.0/8"),
		Start:                      time.Date(2020, 12, 7, 0, 0, 0, 0, time.UTC),
		Days:                       1,
		NumInfected:                300,
		NumNonIoT:                  60,
		NumResearch:                6,
		NumMisconfig:               40,
		NumBackscat:                10,
		MaxPacketsPerHostHour:      4000,
		NATFraction:                0.50,
		ClosedFraction:             0.80,
		GenericBannerFraction:      0.70,
		ServerBannerFraction:       0.10,
		ToolEmbeddedBannerFraction: 0.25,
	}
}

// World is the simulated Internet.
type World struct {
	cfg   Config
	reg   *registry.Registry
	hosts []*Host
	byIP  map[packet.IP]*Host
}

// NewWorld deterministically builds a world from cfg.
func NewWorld(cfg Config) *World {
	if cfg.Telescope.Bits == 0 {
		cfg.Telescope = packet.MustParsePrefix("10.0.0.0/8")
	}
	if cfg.Days <= 0 {
		cfg.Days = 1
	}
	if cfg.MaxPacketsPerHostHour <= 0 {
		cfg.MaxPacketsPerHostHour = 4000
	}
	if cfg.NATFraction == 0 && cfg.ClosedFraction == 0 {
		cfg.NATFraction, cfg.ClosedFraction = 0.50, 0.80
	}
	if cfg.GenericBannerFraction == 0 {
		cfg.GenericBannerFraction = 0.70
	}
	if cfg.ServerBannerFraction == 0 {
		cfg.ServerBannerFraction = 0.10
	}
	if cfg.ToolEmbeddedBannerFraction == 0 {
		cfg.ToolEmbeddedBannerFraction = 0.25
	}
	reg := cfg.Registry
	if reg == nil {
		reg = registry.Build(registry.Config{Seed: cfg.Seed, Blocks: 1024})
	}
	w := &World{cfg: cfg, reg: reg, byIP: make(map[packet.IP]*Host)}
	rng := rand.New(rand.NewSource(cfg.Seed))

	for i := 0; i < cfg.NumInfected; i++ {
		w.addHost(w.buildInfected(rng))
	}
	for i := 0; i < cfg.NumNonIoT; i++ {
		w.addHost(w.buildNonIoT(rng, false))
	}
	for i := 0; i < cfg.NumResearch; i++ {
		w.addHost(w.buildNonIoT(rng, true))
	}
	if cfg.Emerging != nil {
		for i := 0; i < cfg.Emerging.Count; i++ {
			w.addHost(w.buildEmergingInfected(rng, cfg.Emerging.StartDay))
		}
	}
	for i := 0; i < cfg.NumMisconfig; i++ {
		w.addHost(w.buildMisconfig(rng))
	}
	for i := 0; i < cfg.NumBackscat; i++ {
		w.addHost(w.buildBackscatter(rng))
	}
	return w
}

func (w *World) addHost(h *Host) {
	if _, dup := w.byIP[h.IP]; dup {
		return // vanishingly rare collision; drop rather than overwrite
	}
	w.byIP[h.IP] = h
	w.hosts = append(w.hosts, h)
}

// span returns the simulated period bounds.
func (w *World) span() (time.Time, time.Time) {
	return w.cfg.Start, w.cfg.Start.Add(time.Duration(w.cfg.Days) * 24 * time.Hour)
}

// makeSessions builds scan sessions inside the simulated span. meanDur and
// meanGap shape session length and inter-session silence.
func makeSessions(rng *rand.Rand, from, to time.Time, meanDur, meanGap time.Duration) []session {
	var out []session
	// Hosts come online at a random instant in the first 80 % of the span
	// so each day surfaces new sources.
	span := to.Sub(from)
	t := from.Add(time.Duration(rng.Float64() * 0.8 * float64(span)))
	for t.Before(to) {
		d := time.Duration((0.5 + rng.Float64()) * float64(meanDur))
		end := t.Add(d)
		if end.After(to) {
			end = to
		}
		out = append(out, session{start: t, end: end})
		gap := time.Duration((0.5 + rng.Float64()*1.5) * float64(meanGap))
		t = end.Add(gap)
	}
	return out
}

func (w *World) buildInfected(rng *rand.Rand) *Host {
	from, to := w.span()
	m := device.PickModel(rng)
	fam := device.PickFamily(rng)
	h := &Host{
		IP:          w.reg.PickInfectedHost(rng),
		Kind:        KindInfectedIoT,
		Model:       m,
		Firmware:    m.Firmwares[rng.Intn(len(m.Firmwares))],
		Family:      fam,
		rate:        fam.RateMin + rng.Float64()*(fam.RateMax-fam.RateMin),
		jitter:      fam.Jitter,
		stack:       m.Stack,
		behindNAT:   rng.Float64() < w.cfg.NATFraction,
		portsClosed: rng.Float64() < w.cfg.ClosedFraction,
		// Long scan sessions with long silences: an infected device is
		// typically one flow instance per day-ish, so the instance/unique
		// ratio of a multi-day snapshot stays modest (Table V reports
		// ~16 % redundancy).
		sessions: makeSessions(rng, from, to, 9*time.Hour, 9*time.Hour),
		seed:     rng.Int63(),
		hops:     uint8(5 + rng.Intn(21)),
	}
	if rng.Float64() < w.cfg.ServerBannerFraction {
		// Stock distro image: the device answers with server software
		// and its banner truth reads non-IoT.
		h.services = map[uint16]service{
			22: {protocol: "ssh", banner: "SSH-2.0-OpenSSH_7.4"},
			80: {protocol: "http", banner: "HTTP/1.1 200 OK\r\nServer: nginx/1.10.3\r\n\r\n<title>Welcome</title>"},
		}
		return h
	}
	h.services = make(map[uint16]service, len(m.Services))
	// Generic devices hide identifying text on every service (vendors
	// that strip banners, including identifying SSH strings), leaving
	// only embedded-software hints.
	generic := rng.Float64() < w.cfg.GenericBannerFraction
	for _, st := range m.Services {
		banner := st.Render(m, h.Firmware)
		if generic {
			banner = genericEmbeddedBanner(st.Protocol)
		}
		h.services[st.Port] = service{protocol: st.Protocol, banner: banner}
	}
	return h
}

// buildEmergingInfected builds a device infected by the emerging family:
// identical catalog hardware, but scanning with the new botnet's
// behaviour and only from startDay onward.
func (w *World) buildEmergingInfected(rng *rand.Rand, startDay int) *Host {
	h := w.buildInfected(rng)
	h.Family = &device.EmergingFamily
	h.rate = device.EmergingFamily.RateMin +
		rng.Float64()*(device.EmergingFamily.RateMax-device.EmergingFamily.RateMin)
	h.jitter = device.EmergingFamily.Jitter
	from, to := w.span()
	emerge := from.Add(time.Duration(startDay) * 24 * time.Hour)
	if emerge.After(to) {
		emerge = to
	}
	h.sessions = makeSessions(rng, emerge, to, 4*time.Hour, 2*time.Hour)
	return h
}

// genericEmbeddedBanner returns a banner that reveals an embedded device
// without identifying vendor or model — the common case in the wild.
func genericEmbeddedBanner(protocol string) string {
	switch protocol {
	case "http", "https":
		return "HTTP/1.1 200 OK\r\nServer: Boa/0.94.13\r\n\r\n<title>login</title>"
	case "ssh":
		return "SSH-2.0-dropbear_2014.63"
	case "ftp":
		return "220 FTP server ready."
	case "telnet":
		return "\r\nlogin: "
	case "rtsp":
		return "RTSP/1.0 200 OK\r\nServer: Rtsp Server"
	default:
		return ""
	}
}

func (w *World) buildNonIoT(rng *rand.Rand, research bool) *Host {
	from, to := w.span()
	p := device.PickNonIoTProfile(rng)
	h := &Host{
		Kind:     KindNonIoTScanner,
		Profile:  p,
		rate:     p.RateMin + rng.Float64()*(p.RateMax-p.RateMin),
		jitter:   p.Jitter,
		stack:    p.Stack,
		sessions: makeSessions(rng, from, to, 90*time.Minute, 4*time.Hour),
		seed:     rng.Int63(),
		hops:     uint8(5 + rng.Intn(21)),
	}
	if research {
		ip, org := w.reg.PickResearchScanner(rng)
		h.IP = ip
		h.Kind = KindResearchScanner
		h.ResearchOrg = org.Name
		// Research scanners run ZMap-style tooling around the clock.
		zp := &device.NonIoTProfiles[0]
		h.Profile = zp
		h.rate = zp.RateMin + rng.Float64()*(zp.RateMax-zp.RateMin)
		h.jitter = zp.Jitter
		h.stack = zp.Stack
		h.sessions = []session{{start: from, end: to}}
	} else {
		h.IP = w.reg.PickNonIoTHost(rng)
	}
	h.services = make(map[uint16]service, len(p.Services))
	for _, st := range p.Services {
		h.services[st.Port] = service{protocol: st.Protocol, banner: st.Template}
	}
	if !research && rng.Float64() < w.cfg.ToolEmbeddedBannerFraction {
		// Cheap VPS running embedded-flavored software: its banner truth
		// reads IoT even though the host is a scan box.
		h.services[22] = service{protocol: "ssh", banner: "SSH-2.0-dropbear_2017.75"}
		h.services[80] = service{protocol: "http", banner: "HTTP/1.1 200 OK\r\nServer: Boa/0.94.14rc21\r\n\r\n<title>panel</title>"}
	}
	// Servers are mostly probe-reachable.
	h.behindNAT = rng.Float64() < 0.10
	h.portsClosed = rng.Float64() < 0.30
	return h
}

func (w *World) buildMisconfig(rng *rand.Rand) *Host {
	from, to := w.span()
	// One short burst somewhere in the span: the node-malfunction traffic
	// the paper's duration/volume thresholds are designed to exclude.
	start := from.Add(time.Duration(rng.Float64() * float64(to.Sub(from))))
	burst := time.Duration(5+rng.Intn(50)) * time.Second
	return &Host{
		IP:       w.reg.PickNonIoTHost(rng),
		Kind:     KindMisconfigured,
		rate:     float64(200 + rng.Intn(800)), // burst rate, Internet-wide
		jitter:   0.8,
		stack:    device.NonIoTProfiles[0].Stack,
		sessions: []session{{start: start, end: start.Add(burst)}},
		seed:     rng.Int63(),
		hops:     uint8(5 + rng.Intn(21)),
	}
}

func (w *World) buildBackscatter(rng *rand.Rand) *Host {
	from, to := w.span()
	return &Host{
		IP:       w.reg.PickNonIoTHost(rng),
		Kind:     KindBackscatter,
		rate:     float64(2000 + rng.Intn(20000)),
		jitter:   0.2,
		stack:    device.NonIoTProfiles[0].Stack,
		sessions: makeSessions(rng, from, to, 30*time.Minute, 8*time.Hour),
		seed:     rng.Int63(),
		hops:     uint8(5 + rng.Intn(21)),
	}
}

// InjectZMapScan adds a controlled ZMap scanner to the world: one host
// running a single sweep of port at rate pps over [start, start+dur).
// This reproduces the paper's latency experiment ("we execute a 3-hour
// Internet-wide scanning for port 80 with a rate of 1000 pps"). The
// returned address identifies the injected scanner in the feed.
func (w *World) InjectZMapScan(start time.Time, dur time.Duration, port uint16, rate float64) packet.IP {
	rng := rand.New(rand.NewSource(w.cfg.Seed ^ int64(port)<<16 ^ start.Unix()))
	profile := &device.NonIoTProfile{
		Tool:    device.ToolZMap,
		Type:    device.TypeServer,
		Ports:   []device.PortWeight{{Port: port, Weight: 1}},
		RateMin: rate, RateMax: rate,
		Jitter: 0.02,
		Stack:  device.NonIoTProfiles[0].Stack,
	}
	h := &Host{
		IP:       w.reg.PickNonIoTHost(rng),
		Kind:     KindNonIoTScanner,
		Profile:  profile,
		rate:     rate,
		jitter:   profile.Jitter,
		stack:    profile.Stack,
		sessions: []session{{start: start, end: start.Add(dur)}},
		seed:     rng.Int63(),
		hops:     12,
	}
	w.addHost(h)
	return h.IP
}

// Hosts returns all simulated hosts (ground truth; evaluation only).
func (w *World) Hosts() []*Host { return w.hosts }

// HostByIP returns the host owning ip (ground truth; evaluation only).
func (w *World) HostByIP(ip packet.IP) (*Host, bool) {
	h, ok := w.byIP[ip]
	return h, ok
}

// Registry exposes the registry the world was placed into.
func (w *World) Registry() *registry.Registry { return w.reg }

// Telescope returns the monitored prefix.
func (w *World) Telescope() packet.Prefix { return w.cfg.Telescope }

// Start returns the beginning of the simulated span.
func (w *World) Start() time.Time { return w.cfg.Start }

// Days returns the simulated span length in days.
func (w *World) Days() int { return w.cfg.Days }

// CountKind returns the number of hosts of kind k.
func (w *World) CountKind(k HostKind) int {
	n := 0
	for _, h := range w.hosts {
		if h.Kind == k {
			n++
		}
	}
	return n
}

// VendorBreakdown tallies ground-truth vendors of infected hosts
// (evaluation only).
func (w *World) VendorBreakdown() map[string]int {
	out := map[string]int{}
	for _, h := range w.hosts {
		if h.Kind == KindInfectedIoT {
			out[h.Model.Vendor]++
		}
	}
	return out
}

// sortHostsByIP gives tests a stable host ordering.
func sortHostsByIP(hs []*Host) {
	sort.Slice(hs, func(i, j int) bool { return hs[i].IP < hs[j].IP })
}

// bannerIsTextual reports whether a banner carries device-identifying text
// per the paper's generic extraction regex (letters+digits tokens such as
// model numbers). Used by evaluation to measure the ~3 % textual share.
func bannerIsTextual(banner string) bool {
	return strings.Contains(banner, "AXIS") || textualToken(banner)
}

func textualToken(s string) bool {
	// Simplified shape of the paper's rule "[a-z]+[-]?[a-z!]*[0-9]+...":
	// a letter run immediately followed by digits (e.g. "FI9821P",
	// "DIR-615", "RouterOS 6.45").
	lower := strings.ToLower(s)
	runLetters := 0
	for i := 0; i < len(lower); i++ {
		c := lower[i]
		switch {
		case c >= 'a' && c <= 'z':
			runLetters++
		case c == '-' && runLetters > 0:
			// allow a single hyphen inside the token
		case c >= '0' && c <= '9':
			if runLetters >= 2 {
				return true
			}
			runLetters = 0
		default:
			runLetters = 0
		}
	}
	return false
}
