// Package scenario is the adversarial scenario library: seeded,
// deterministic traffic mixes layered on simnet that stress the
// detector's known blind spots — sub-threshold stealth scanners,
// Mirai-style botnet growth waves, spoofed backscatter storms, and
// diurnal load cycles (the behaviours IoT-BDA and GothX catalogue for
// real IoT malware). Each scenario builds a world plus ground-truth
// labels for every injected host; the scorer in score.go runs the full
// TRW→probe→classify pipeline over it and reports per-scenario
// precision/recall, turning detection accuracy under adversarial
// traffic into a regression-tracked metric (testdata/accuracy.json).
package scenario

import (
	"fmt"
	"time"

	"exiot/internal/device"
	"exiot/internal/packet"
	"exiot/internal/simnet"
)

// Injected is the ground truth for one adversarial host.
type Injected struct {
	// Role names the adversarial behaviour ("stealth", "wave-2", ...).
	Role string
	// Scanner reports whether the host genuinely scans — i.e. whether
	// an ideal detector would feed it. Sub-threshold stealth scanners
	// are Scanner=true even though the TRW θ can't see them: the gap
	// between this label and the detector's output IS the blind spot
	// the suite measures.
	Scanner bool
	// IoT is the ground-truth device-class label.
	IoT bool
}

// Truth maps every injected host to its ground truth.
type Truth map[packet.IP]Injected

// Scenario is one adversarial traffic mix.
type Scenario struct {
	Name        string
	Description string
	// Hours is the scenario's canonical span; Setup receives it (or a
	// test-shortened value) as its hours argument.
	Hours int
	// BlindSpot is the expected detector weakness, for EXPERIMENTS.md.
	BlindSpot string
	// Setup deterministically builds the world and ground truth for
	// (seed, hours). The pipeline under test sees only the packets.
	Setup func(seed int64, hours int) (*simnet.World, Truth)
}

// baseWorld builds the small shared background population every
// scenario runs against: enough benign and malicious variety that
// precision is meaningful, small enough that a 48 h scenario stays
// test-sized.
func baseWorld(seed int64, hours int) *simnet.World {
	cfg := simnet.DefaultConfig(seed)
	cfg.NumInfected = 30
	cfg.NumNonIoT = 8
	cfg.NumResearch = 2
	cfg.NumMisconfig = 6
	cfg.NumBackscat = 3
	cfg.MaxPacketsPerHostHour = 600
	cfg.Days = (hours + 23) / 24
	if cfg.Days < 1 {
		cfg.Days = 1
	}
	return simnet.NewWorld(cfg)
}

// familyByName finds a malware family in the device catalog.
func familyByName(name string) *device.MalwareFamily {
	for i := range device.Families {
		if device.Families[i].Name == name {
			return &device.Families[i]
		}
	}
	panic(fmt.Sprintf("scenario: unknown malware family %q", name))
}

// Suite returns the adversarial scenario library.
func Suite() []Scenario {
	return []Scenario{
		stealthSubThreshold(),
		botnetGrowthWave(),
		backscatterStorm(),
		diurnalCycle(),
	}
}

// stealthSubThreshold injects low-and-slow scanners whose per-session
// telescope footprint stays just below the TRW detection threshold:
// ~30-minute sessions at 10 pps Internet-wide (≈0.04 pps observed,
// ≈70 packets) separated by silences longer than the counting-expiry
// gap, so the detector's count never reaches θ=100.
func stealthSubThreshold() Scenario {
	return Scenario{
		Name: "stealth-subthreshold",
		Description: "24 low-and-slow Mirai hosts scanning in ~70-packet sessions " +
			"below the TRW θ=100, silences past the expiry gap between them",
		Hours: 6,
		BlindSpot: "fan-out counting resets on every expiry gap, so a scanner that " +
			"paces sessions under θ packets is invisible at any campaign length",
		Setup: func(seed int64, hours int) (*simnet.World, Truth) {
			w := baseWorld(seed, hours)
			truth := Truth{}
			mirai := familyByName("Mirai")
			start := w.Start()
			for i := 0; i < 24; i++ {
				// One 30-minute session per hour, phase-staggered so the
				// cohort is always partially active.
				var wins []simnet.Window
				offset := time.Duration(i%4) * 15 * time.Minute
				for h := 0; h < hours; h++ {
					s := start.Add(time.Duration(h)*time.Hour + offset)
					wins = append(wins, simnet.Window{Start: s, End: s.Add(30 * time.Minute)})
				}
				ip := w.InjectHost(simnet.InjectSpec{
					Kind:     simnet.KindInfectedIoT,
					Family:   mirai,
					Rate:     10, // observed ≈0.04 pps → ≈70 pkts/session < θ
					Jitter:   0.10,
					Sessions: wins,
					Salt:     0x57EA17<<20 | int64(i),
				})
				truth[ip] = Injected{Role: "stealth", Scanner: true, IoT: true}
			}
			return w, truth
		},
	}
}

// botnetGrowthWave injects a Mirai-style campaign recruiting in
// exponential waves — 4, 8, 16, then 32 devices at three-hour
// intervals, each scanning continuously from its recruitment on.
func botnetGrowthWave() Scenario {
	return Scenario{
		Name: "botnet-growth-wave",
		Description: "Mirai campaign recruiting 4/8/16/32 devices in waves three " +
			"hours apart, each scanning continuously from recruitment",
		Hours: 12,
		BlindSpot: "nothing hides the wave itself, but detection lags recruitment " +
			"by the time-to-θ at each device's draw from the family rate range — " +
			"the feed understates a growing botnet's newest wave",
		Setup: func(seed int64, hours int) (*simnet.World, Truth) {
			w := baseWorld(seed, hours)
			truth := Truth{}
			mirai := familyByName("Mirai")
			start, end := w.Start(), w.Start().Add(time.Duration(hours)*time.Hour)
			salt := int64(0)
			for wave, count := range []int{4, 8, 16, 32} {
				recruited := start.Add(time.Duration(wave) * 3 * time.Hour)
				if !recruited.Before(end) {
					break
				}
				for i := 0; i < count; i++ {
					salt++
					ip := w.InjectHost(simnet.InjectSpec{
						Kind:     simnet.KindInfectedIoT,
						Family:   mirai, // rate re-drawn from the family range
						Sessions: []simnet.Window{{Start: recruited, End: end}},
						Salt:     0xB07<<32 | salt,
					})
					truth[ip] = Injected{
						Role:    fmt.Sprintf("wave-%d", wave+1),
						Scanner: true,
						IoT:     true,
					}
				}
			}
			return w, truth
		},
	}
}

// backscatterStorm injects a concentrated DDoS backscatter storm:
// high-rate spoofed-victim responders active in a two-hour window. None
// of them scan; a perfect pipeline feeds none of them.
func backscatterStorm() Scenario {
	return Scenario{
		Name: "backscatter-storm",
		Description: "30 DDoS victims blasting SYN-ACK/RST/ICMP backscatter at " +
			"20-60k pps for a two-hour storm window",
		Hours: 6,
		BlindSpot: "a backscatter source that leaks past the response-packet filter " +
			"would flood the feed with false records at storm volume; precision " +
			"under the storm is the regression metric",
		Setup: func(seed int64, hours int) (*simnet.World, Truth) {
			w := baseWorld(seed, hours)
			truth := Truth{}
			stormStart := w.Start().Add(2 * time.Hour)
			stormEnd := stormStart.Add(2 * time.Hour)
			for i := 0; i < 30; i++ {
				ip := w.InjectHost(simnet.InjectSpec{
					Kind:     simnet.KindBackscatter,
					Rate:     20000 + float64(i)*1300,
					Jitter:   0.2,
					Sessions: []simnet.Window{{Start: stormStart, End: stormEnd}},
					Salt:     0x5708<<32 | int64(i),
				})
				truth[ip] = Injected{Role: "storm", Scanner: false, IoT: false}
			}
			return w, truth
		},
	}
}

// diurnalCycle injects devices that scan only half of every day —
// powered or connected diurnally — over a two-day span, exercising the
// flow-end sweep and re-detection across the silent half-cycles.
func diurnalCycle() Scenario {
	return Scenario{
		Name: "diurnal-cycle",
		Description: "16 infected devices scanning 12h-on/12h-off across 48h, " +
			"phase-split between day-active and night-active cohorts",
		Hours: 48,
		BlindSpot: "every silent half-cycle ends the flow and the next one " +
			"re-detects it, so record counts inflate with addr repetition " +
			"and each cycle re-pays the time-to-θ detection lag",
		Setup: func(seed int64, hours int) (*simnet.World, Truth) {
			w := baseWorld(seed, hours)
			truth := Truth{}
			mirai := familyByName("Mirai")
			start, end := w.Start(), w.Start().Add(time.Duration(hours)*time.Hour)
			for i := 0; i < 16; i++ {
				// Half the cohort is on for the first 12 h of each day,
				// half for the second.
				phase := time.Duration(i%2) * 12 * time.Hour
				var wins []simnet.Window
				for day := 0; ; day++ {
					s := start.Add(time.Duration(day)*24*time.Hour + phase)
					if !s.Before(end) {
						break
					}
					e := s.Add(12 * time.Hour)
					if e.After(end) {
						e = end
					}
					wins = append(wins, simnet.Window{Start: s, End: e})
				}
				ip := w.InjectHost(simnet.InjectSpec{
					Kind:     simnet.KindInfectedIoT,
					Family:   mirai,
					Rate:     50, // observed ≈0.2 pps: θ in ~8 min of each on-cycle
					Jitter:   0.15,
					Sessions: wins,
					Salt:     0xD1<<40 | int64(i),
				})
				truth[ip] = Injected{Role: "diurnal", Scanner: true, IoT: true}
			}
			return w, truth
		},
	}
}
