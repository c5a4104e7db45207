package thirdparty

import (
	"testing"
	"time"

	"exiot/internal/feed"
	"exiot/internal/packet"
	"exiot/internal/simnet"
)

func bigWorld(t *testing.T) (*simnet.World, time.Time, time.Time) {
	t.Helper()
	cfg := simnet.DefaultConfig(77)
	cfg.NumInfected = 2000
	cfg.NumNonIoT = 300
	cfg.NumResearch = 8
	cfg.NumMisconfig = 50
	cfg.NumBackscat = 20
	cfg.Days = 2
	w := simnet.NewWorld(cfg)
	return w, w.Start(), w.Start().Add(48 * time.Hour)
}

// truthSets splits active hosts into IoT / all-scanner ground-truth sets.
func truthSets(w *simnet.World, from, to time.Time) (iot, all feed.IndicatorSet) {
	iot = make(feed.IndicatorSet)
	all = make(feed.IndicatorSet)
	for _, h := range w.Hosts() {
		if _, active := h.FirstActiveIn(from, to); !active {
			continue
		}
		switch h.Kind {
		case simnet.KindInfectedIoT:
			iot.Add(h.IP.String())
			all.Add(h.IP.String())
		case simnet.KindNonIoTScanner, simnet.KindResearchScanner:
			all.Add(h.IP.String())
		}
	}
	return iot, all
}

func TestGreyNoisePartialIoTCoverage(t *testing.T) {
	w, from, to := bigWorld(t)
	gn := BuildGreyNoise(w, from, to, 1)
	iot, all := truthSets(w, from, to)

	covered := gn.IndicatorSet().Intersect(iot)
	frac := float64(covered) / float64(iot.Len())
	// Paper: GreyNoise held ~21 % of eX-IoT's IoT indicators.
	if frac < 0.08 || frac > 0.45 {
		t.Errorf("GreyNoise IoT coverage = %.3f, want ≈0.2", frac)
	}
	// Overall feed is much smaller than the telescope's view.
	if len(gn.obs) >= all.Len() {
		t.Errorf("GreyNoise (%d) should see less than the telescope truth (%d)", len(gn.obs), all.Len())
	}
	// Mirai tags exist and are a subset.
	mirai := gn.MiraiSet()
	if mirai.Len() == 0 {
		t.Fatal("no Mirai tags")
	}
	if mirai.Len() > covered {
		t.Errorf("Mirai tags (%d) exceed observed IoT (%d)", mirai.Len(), covered)
	}
	for ip := range mirai {
		if !gn.Contains(ip) {
			t.Fatal("Mirai tag outside feed")
		}
	}
	cls := gn.Classifications()
	if cls["malicious"] == 0 || cls["unknown"] == 0 {
		t.Errorf("classification mix = %v", cls)
	}
}

func TestGreyNoiseDeterministic(t *testing.T) {
	w, from, to := bigWorld(t)
	a := BuildGreyNoise(w, from, to, 5)
	b := BuildGreyNoise(w, from, to, 5)
	if len(a.obs) != len(b.obs) {
		t.Fatalf("non-deterministic: %d vs %d", len(a.obs), len(b.obs))
	}
	for ip := range a.obs {
		if !b.Contains(ip) {
			t.Fatal("non-deterministic membership")
		}
	}
}

func TestDShieldNoIoTFocus(t *testing.T) {
	w, from, to := bigWorld(t)
	ds := BuildDShield(w, from, to, 2)
	iot, _ := truthSets(w, from, to)
	if len(ds.obs) == 0 {
		t.Fatal("empty DShield feed")
	}
	frac := float64(ds.IndicatorSet().Intersect(iot)) / float64(iot.Len())
	// Paper: DShield held only ~6 % of eX-IoT's IoT indicators.
	if frac > 0.25 {
		t.Errorf("DShield IoT coverage = %.3f; too IoT-aware", frac)
	}
	if ds.MiraiSet().Len() != 0 {
		t.Error("DShield must not carry Mirai tags")
	}
}

func TestBadPacketsIoTOnly(t *testing.T) {
	w, from, to := bigWorld(t)
	bp := BuildBadPackets(w, from, to, 3)
	if len(bp.obs) == 0 {
		t.Fatal("empty Bad Packets feed")
	}
	for ip := range bp.obs {
		h, ok := w.HostByIP(mustParse(t, ip))
		if !ok || h.Kind != simnet.KindInfectedIoT {
			t.Fatalf("non-IoT host %s in honeypot feed", ip)
		}
	}
	iot, _ := truthSets(w, from, to)
	frac := float64(bp.IndicatorSet().Intersect(iot)) / float64(iot.Len())
	// Honeypots validate a majority of IoT scanners (paper ≈70 % overall).
	if frac < 0.45 || frac > 0.9 {
		t.Errorf("Bad Packets IoT coverage = %.3f, want ≈0.65", frac)
	}
}

func TestNERDCzechFocus(t *testing.T) {
	w, from, to := bigWorld(t)
	nerd := BuildNERD(w, from, to, 4)
	reg := w.Registry()
	cz, czCovered := 0, 0
	for _, h := range w.Hosts() {
		if _, active := h.FirstActiveIn(from, to); !active {
			continue
		}
		if h.Kind != simnet.KindInfectedIoT && h.Kind != simnet.KindNonIoTScanner {
			continue
		}
		info, ok := reg.Lookup(h.IP)
		if !ok || info.CountryCode != "CZ" {
			continue
		}
		cz++
		if nerd.Contains(h.IP.String()) {
			czCovered++
		}
	}
	if cz == 0 {
		t.Skip("no Czech scanners this seed")
	}
	frac := float64(czCovered) / float64(cz)
	if frac < 0.6 {
		t.Errorf("NERD Czech coverage = %.3f, want ≈0.85", frac)
	}
}

func TestValidationRateShape(t *testing.T) {
	w, from, to := bigWorld(t)
	iot, _ := truthSets(w, from, to)
	bp := BuildBadPackets(w, from, to, 6)
	nerd := BuildNERD(w, from, to, 6)
	rate := ValidationRate(iot, bp, nerd)
	// Paper: ≈70 % of eX-IoT IoT detections validated across both
	// sources.
	if rate < 0.5 || rate > 0.92 {
		t.Errorf("validation rate = %.3f, want ≈0.7", rate)
	}
	if ValidationRate(feed.IndicatorSet{}, bp) != 0 {
		t.Error("empty reference should validate at 0")
	}
}

func TestAppearancesLagActivity(t *testing.T) {
	w, from, to := bigWorld(t)
	gn := BuildGreyNoise(w, from, to, 7)
	for ip, firstSeen := range gn.Appearances() {
		h, ok := w.HostByIP(mustParse(t, ip))
		if !ok {
			t.Fatalf("unknown host %s", ip)
		}
		activeAt, _ := h.FirstActiveIn(from, to)
		lag := firstSeen.Sub(activeAt)
		if lag < 6*time.Hour || lag > 14*time.Hour {
			t.Errorf("GreyNoise indexing lag = %v, want 6-14 h", lag)
		}
	}
}

func mustParse(t *testing.T, s string) packet.IP {
	t.Helper()
	parsed, err := packet.ParseIP(s)
	if err != nil {
		t.Fatal(err)
	}
	return parsed
}
