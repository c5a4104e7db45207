package scanmod

import (
	"testing"
	"time"

	"exiot/internal/packet"
	"exiot/internal/recog"
	"exiot/internal/simnet"
	"exiot/internal/zmap"
)

var t0 = time.Date(2020, 12, 9, 7, 0, 0, 0, time.UTC)

func testWorld(t *testing.T) *simnet.World {
	t.Helper()
	cfg := simnet.DefaultConfig(40)
	cfg.NumInfected = 300
	cfg.NumNonIoT = 40
	cfg.NumResearch = 3
	cfg.NumMisconfig = 0
	cfg.NumBackscat = 0
	return simnet.NewWorld(cfg)
}

func TestBatchBySize(t *testing.T) {
	w := testWorld(t)
	m := New(Config{BatchSize: 5, BatchWait: time.Hour}, zmap.NewScanner(w), recog.NewDB())
	hosts := w.Hosts()
	var flushed []Tagged
	for i := 0; i < 5; i++ {
		flushed = m.Enqueue(hosts[i].IP, t0.Add(time.Duration(i)*time.Second))
	}
	if flushed == nil {
		t.Fatal("batch did not flush at size threshold")
	}
	if len(flushed) != 5 {
		t.Errorf("flushed %d, want 5", len(flushed))
	}
	if len(m.pending) != 0 {
		t.Errorf("pending = %d after flush", len(m.pending))
	}
}

func TestBatchByAge(t *testing.T) {
	w := testWorld(t)
	m := New(Config{BatchSize: 1000, BatchWait: 30 * time.Minute}, zmap.NewScanner(w), recog.NewDB())
	hosts := w.Hosts()
	if out := m.Enqueue(hosts[0].IP, t0); out != nil {
		t.Fatal("flushed too early")
	}
	if out := m.Enqueue(hosts[1].IP, t0.Add(10*time.Minute)); out != nil {
		t.Fatal("flushed too early")
	}
	out := m.Enqueue(hosts[2].IP, t0.Add(31*time.Minute))
	if out == nil {
		t.Fatal("age trigger did not flush")
	}
	if len(out) != 3 {
		t.Errorf("flushed %d, want 3", len(out))
	}
}

func TestFlushEmpty(t *testing.T) {
	w := testWorld(t)
	m := New(Default(), zmap.NewScanner(w), recog.NewDB())
	if out := m.Flush(); out != nil {
		t.Errorf("empty flush returned %d results", len(out))
	}
}

func TestTaggingAgainstWorld(t *testing.T) {
	w := testWorld(t)
	m := New(Default(), zmap.NewScanner(w), recog.NewDB())
	for _, h := range w.Hosts() {
		m.Enqueue(h.IP, t0)
	}
	tagged0, untagged0 := metScanners.With("tagged").Value(), metScanners.With("untagged").Value()
	out := m.Flush()
	if len(out) != len(w.Hosts()) {
		t.Fatalf("flushed %d of %d", len(out), len(w.Hosts()))
	}
	taggedIoT, taggedNonIoT, wrongVendor := 0, 0, 0
	iotMislabels, nonIoTMislabels := 0, 0
	for _, tg := range out {
		if tg.Match == nil {
			continue
		}
		h, _ := w.HostByIP(tg.IP)
		if tg.Match.IoT {
			taggedIoT++
			if h.Kind != simnet.KindInfectedIoT {
				nonIoTMislabels++ // VPS with embedded-flavored software
			} else if tg.Match.Vendor != "" && tg.Match.Vendor != h.Model.Vendor {
				wrongVendor++
			}
		} else {
			taggedNonIoT++
			if h.Kind == simnet.KindInfectedIoT {
				iotMislabels++ // IoT device on a stock server image
			}
		}
	}
	if taggedIoT == 0 {
		t.Error("no IoT labels produced — training would starve")
	}
	if taggedNonIoT == 0 {
		t.Error("no non-IoT labels produced — training would be single-class")
	}
	// Banner truth carries realistic noise (the simulator's stock-image
	// devices and embedded-software VPSes), but it must stay bounded or
	// the training signal collapses.
	if frac := float64(nonIoTMislabels) / float64(taggedIoT); frac > 0.35 {
		t.Errorf("IoT-tag noise = %.2f of %d tags, want bounded", frac, taggedIoT)
	}
	if frac := float64(iotMislabels) / float64(taggedNonIoT); frac > 0.45 {
		t.Errorf("non-IoT-tag noise = %.2f of %d tags, want bounded", frac, taggedNonIoT)
	}
	if wrongVendor > 0 {
		t.Errorf("%d vendor misattributions on true IoT devices", wrongVendor)
	}
	tagged := metScanners.With("tagged").Value() - tagged0
	untagged := metScanners.With("untagged").Value() - untagged0
	if tagged != int64(taggedIoT+taggedNonIoT) || tagged+untagged != int64(len(out)) {
		t.Errorf("exiot_scanmod_scanners_total rose by %d tagged, %d untagged; want %d of %d tagged",
			tagged, untagged, taggedIoT+taggedNonIoT, len(out))
	}
}

func TestUnknownBannerUntagged(t *testing.T) {
	// Every port of the host answers with a device-like banner no rule
	// matches: the host is probed and banner-grabbed, but left untagged.
	m := New(Default(), zmap.NewScanner(oddProber{}), recog.NewDB())
	m.Enqueue(packet.MustParseIP("198.18.0.1"), t0)
	tagged0, untagged0 := metScanners.With("tagged").Value(), metScanners.With("untagged").Value()
	out := m.Flush()
	if len(out) != 1 || out[0].Match != nil || !out[0].Result.HasBanner() {
		t.Fatalf("unexpected flush: %+v", out)
	}
	tagged := metScanners.With("tagged").Value() - tagged0
	untagged := metScanners.With("untagged").Value() - untagged0
	if tagged != 0 || untagged != 1 {
		t.Errorf("exiot_scanmod_scanners_total rose by %d tagged, %d untagged; want 0 and 1", tagged, untagged)
	}
}

// oddProber always returns a device-like banner no rule matches.
type oddProber struct{}

func (oddProber) ProbePort(packet.IP, uint16) bool { return true }
func (oddProber) GrabBanner(packet.IP, uint16) (string, string, bool) {
	return "FUTURECAM fc-9000x ready", "http", true
}
