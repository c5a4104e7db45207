// Package thirdparty simulates the external CTI feeds the paper compares
// and validates eX-IoT against: GreyNoise (commercial sensor network with
// Mirai tagging), DShield (crowd-sourced IDS reports, no IoT labels),
// Bad Packets (distributed IoT honeypots), and the Czech CSIRT's NERD
// reputation database. Each observer watches the same simulated world
// through its real-world vantage limits — smaller sensor footprints,
// rate-dependent visibility, port biases, country focus, and indexing
// delays — so the comparison metrics (Tables III and IV) and the
// validation rates (§V-A) take the paper's shape for structural reasons,
// not by construction.
package thirdparty

import (
	"math"
	"math/rand"
	"time"

	"exiot/internal/feed"
	"exiot/internal/simnet"
)

// Observation is one indicator as a third-party feed indexed it.
type Observation struct {
	IP        string
	FirstSeen time.Time
	// MiraiTag marks GreyNoise's "Mirai" / "Mirai variant" tag.
	MiraiTag bool
	// Classification is GreyNoise's malicious / unknown / benign verdict.
	Classification string
	// ActiveDays is how many days of the observation window the source
	// was active — each one yields a daily record update in the feed.
	ActiveDays int
}

// Feed is the materialized view of one third-party source.
type Feed struct {
	Name string
	obs  map[string]Observation
}

// Contains reports whether ip is indexed.
func (f *Feed) Contains(ip string) bool {
	_, ok := f.obs[ip]
	return ok
}

// IndicatorSet returns all indexed indicators.
func (f *Feed) IndicatorSet() feed.IndicatorSet {
	s := make(feed.IndicatorSet, len(f.obs))
	for ip := range f.obs {
		s.Add(ip)
	}
	return s
}

// MiraiSet returns the indicators tagged Mirai / Mirai variant.
func (f *Feed) MiraiSet() feed.IndicatorSet {
	s := make(feed.IndicatorSet)
	for ip, o := range f.obs {
		if o.MiraiTag {
			s.Add(ip)
		}
	}
	return s
}

// DailyRecords returns the feed's average new/updated records per day:
// every observed source contributes one record per active day, matching
// how GreyNoise and DShield refresh entries daily (the paper: "12,282
// have updated in the same time period").
func (f *Feed) DailyRecords(days int) float64 {
	if days <= 0 {
		days = 1
	}
	total := 0
	for _, o := range f.obs {
		d := o.ActiveDays
		if d <= 0 {
			d = 1
		}
		total += d
	}
	return float64(total) / float64(days)
}

// MiraiDailyRecords is DailyRecords restricted to Mirai-tagged sources.
func (f *Feed) MiraiDailyRecords(days int) float64 {
	if days <= 0 {
		days = 1
	}
	total := 0
	for _, o := range f.obs {
		if !o.MiraiTag {
			continue
		}
		d := o.ActiveDays
		if d <= 0 {
			d = 1
		}
		total += d
	}
	return float64(total) / float64(days)
}

// activeDays counts the days in [from, to) during which h scans.
func activeDays(h *simnet.Host, from, to time.Time) int {
	n := 0
	for day := from; day.Before(to); day = day.Add(24 * time.Hour) {
		end := day.Add(24 * time.Hour)
		if end.After(to) {
			end = to
		}
		if h.ActiveDuring(day, end) {
			n++
		}
	}
	return n
}

// Appearances returns indicator → first-seen for latency analysis.
func (f *Feed) Appearances() map[string]time.Time {
	out := make(map[string]time.Time, len(f.obs))
	for ip, o := range f.obs {
		out[ip] = o.FirstSeen
	}
	return out
}

// Classifications tallies GreyNoise-style verdicts.
func (f *Feed) Classifications() map[string]int {
	out := map[string]int{}
	for _, o := range f.obs {
		if o.Classification != "" {
			out[o.Classification]++
		}
	}
	return out
}

// rateVisibility is the probability a sensor network of limited footprint
// indexes a scanner: a logistic in the scanner's rate. r50 is the rate at
// which visibility reaches 50 %.
func rateVisibility(rate, r50, steep float64) float64 {
	if rate <= 0 {
		return 0
	}
	return 1 / (1 + math.Pow(r50/rate, steep))
}

// BuildGreyNoise materializes GreyNoise's view of the world over
// [from, to): a sensor net far smaller than a /8, so slow IoT scanners
// are frequently missed; Mirai-fingerprint sources get tagged; indexing
// lags hours behind first activity (the paper measured ≈10 h and a
// misattributed tool).
func BuildGreyNoise(w *simnet.World, from, to time.Time, seed int64) *Feed {
	rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
	f := &Feed{Name: "GreyNoise", obs: make(map[string]Observation)}
	for _, h := range w.Hosts() {
		first, active := h.FirstActiveIn(from, to)
		if !active {
			continue
		}
		var p float64
		switch h.Kind {
		case simnet.KindInfectedIoT:
			p = rateVisibility(h.Rate(), 140, 1.2)
		case simnet.KindNonIoTScanner, simnet.KindResearchScanner:
			p = rateVisibility(h.Rate(), 60, 1.5)
		default:
			continue // honeypot-style sensors ignore bursts/backscatter
		}
		if rng.Float64() >= p {
			continue
		}
		o := Observation{
			IP:         h.IP.String(),
			FirstSeen:  first.Add(time.Duration(6+rng.Float64()*8) * time.Hour),
			ActiveDays: activeDays(h, from, to),
		}
		if h.SeqEqualsDst() && rng.Float64() < 0.9 {
			o.MiraiTag = true
		}
		switch {
		case h.Kind == simnet.KindResearchScanner:
			o.Classification = "benign"
		case rng.Float64() < 0.4:
			o.Classification = "malicious"
		default:
			o.Classification = "unknown"
		}
		f.obs[o.IP] = o
	}
	return f
}

// dshieldPorts are the ports volunteer IDS sensors most often report.
var dshieldPorts = map[uint16]bool{
	22: true, 23: true, 80: true, 443: true, 445: true,
	3389: true, 1433: true, 5900: true, 8080: true,
}

// BuildDShield materializes DShield's crowd-sourced view: rate-driven,
// biased toward classic IDS-monitored ports, and with no IoT awareness
// at all.
func BuildDShield(w *simnet.World, from, to time.Time, seed int64) *Feed {
	rng := rand.New(rand.NewSource(seed ^ 0x51ed2701))
	f := &Feed{Name: "DShield", obs: make(map[string]Observation)}
	for _, h := range w.Hosts() {
		first, active := h.FirstActiveIn(from, to)
		if !active {
			continue
		}
		var p float64
		switch h.Kind {
		case simnet.KindInfectedIoT:
			p = rateVisibility(h.Rate(), 900, 1.1)
		case simnet.KindNonIoTScanner, simnet.KindResearchScanner:
			p = rateVisibility(h.Rate(), 350, 1.4)
		default:
			continue
		}
		if !h.TargetsAnyPort(dshieldPorts) {
			p *= 0.25
		}
		// Crowd-sourced reports aggregate slowly: short one-off scans
		// rarely accumulate enough sensor hits to be indexed (the paper's
		// 3-hour test scan never appeared in DShield).
		if h.ActiveDurationIn(from, to) < 5*time.Hour {
			p *= 0.15
		}
		if rng.Float64() >= p {
			continue
		}
		f.obs[h.IP.String()] = Observation{
			IP:         h.IP.String(),
			FirstSeen:  first.Add(time.Duration(12+rng.Float64()*24) * time.Hour),
			ActiveDays: activeDays(h, from, to),
		}
	}
	return f
}

// honeypotPorts are the services IoT honeypots mimic.
var honeypotPorts = map[uint16]bool{
	23: true, 2323: true, 80: true, 81: true, 8080: true,
	5555: true, 7547: true, 37215: true,
}

// BuildBadPackets materializes Bad Packets' honeypot view: large-scale
// IoT-specific honeypots catch a majority of IoT scanners that target the
// mimicked services, and some malware actively avoids honeypots.
func BuildBadPackets(w *simnet.World, from, to time.Time, seed int64) *Feed {
	rng := rand.New(rand.NewSource(seed ^ 0x0bad9ac8))
	f := &Feed{Name: "BadPackets", obs: make(map[string]Observation)}
	for _, h := range w.Hosts() {
		first, active := h.FirstActiveIn(from, to)
		if !active {
			continue
		}
		if h.Kind != simnet.KindInfectedIoT {
			continue // IoT-focused CTI
		}
		p := 0.15
		if h.TargetsAnyPort(honeypotPorts) {
			p = 0.72
		}
		if rng.Float64() >= p {
			continue
		}
		f.obs[h.IP.String()] = Observation{
			IP:        h.IP.String(),
			FirstSeen: first.Add(time.Duration(1+rng.Float64()*6) * time.Hour),
		}
	}
	return f
}

// BuildNERD materializes the Czech CSIRT's NERD reputation database:
// near-complete coverage of scanners hosted in the Czech Republic, thin
// coverage elsewhere (aggregated foreign alerts).
func BuildNERD(w *simnet.World, from, to time.Time, seed int64) *Feed {
	rng := rand.New(rand.NewSource(seed ^ 0x00c21e8d))
	reg := w.Registry()
	f := &Feed{Name: "NERD", obs: make(map[string]Observation)}
	for _, h := range w.Hosts() {
		first, active := h.FirstActiveIn(from, to)
		if !active {
			continue
		}
		switch h.Kind {
		case simnet.KindInfectedIoT, simnet.KindNonIoTScanner, simnet.KindResearchScanner:
		default:
			continue
		}
		p := 0.10
		if info, ok := reg.Lookup(h.IP); ok && info.CountryCode == "CZ" {
			p = 0.85
		}
		if rng.Float64() >= p {
			continue
		}
		f.obs[h.IP.String()] = Observation{
			IP:        h.IP.String(),
			FirstSeen: first.Add(time.Duration(2+rng.Float64()*10) * time.Hour),
		}
	}
	return f
}

// ValidationRate computes the fraction of reference indicators confirmed
// by at least one validating feed — the paper's §V-A cross-validation.
func ValidationRate(ref feed.IndicatorSet, validators ...*Feed) float64 {
	if ref.Len() == 0 {
		return 0
	}
	confirmed := 0
	for ip := range ref {
		for _, v := range validators {
			if v.Contains(ip) {
				confirmed++
				break
			}
		}
	}
	return float64(confirmed) / float64(ref.Len())
}
