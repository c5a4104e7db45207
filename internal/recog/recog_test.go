package recog

import (
	"math/rand"
	"strings"
	"testing"

	"exiot/internal/device"
)

func TestVendorExtraction(t *testing.T) {
	db := NewDB()
	cases := []struct {
		banner         string
		wantIoT        bool
		wantVendor     string
		wantModelPart  string
		wantFirmware   string
		wantDetailedOK bool
	}{
		{
			banner:  "220 RB941-2nD hAP lite FTP server (MikroTik 6.45.9) ready",
			wantIoT: true, wantVendor: "MikroTik", wantModelPart: "RB941-2nD hAP lite", wantFirmware: "6.45.9", wantDetailedOK: true,
		},
		{
			banner:  "HTTP/1.1 200 OK\r\nServer: mikrotik RouterOS 6.42.1\r\n\r\n<title>RouterOS router configuration page</title>",
			wantIoT: true, wantVendor: "MikroTik", wantFirmware: "6.42.1", wantDetailedOK: true,
		},
		{
			banner:  "220 AXIS Q6115-E PTZ Dome Network Camera 6.20.1.2 (2016) ready.",
			wantIoT: true, wantVendor: "Axis", wantModelPart: "Q6115-E PTZ Dome", wantFirmware: "6.20.1.2", wantDetailedOK: true,
		},
		{
			banner:  "HTTP/1.1 200 OK\r\nServer: FoscamCamera/1.11.1.8\r\n\r\n<title>IPCam Client</title>",
			wantIoT: true, wantVendor: "Foscam", wantFirmware: "1.11.1.8", wantDetailedOK: true,
		},
		{
			banner:  `HTTP/1.1 401 Unauthorized` + "\r\n" + `WWW-Authenticate: Digest realm="DS-2CD2032-I"`,
			wantIoT: true, wantVendor: "Hikvision", wantModelPart: "DS-2CD2032-I", wantDetailedOK: true,
		},
		{
			banner:  "HTTP/1.1 200 OK\r\nServer: Linux, HTTP/1.1, DIR-615 Ver 20.07",
			wantIoT: true, wantVendor: "D-Link", wantModelPart: "DIR-615", wantDetailedOK: true,
		},
		{
			banner:  "HTTP/1.1 200 OK\r\nServer: uc-httpd 1.0.0\r\n\r\n<title>NETSurveillance WEB</title>",
			wantIoT: true, wantVendor: "Xiongmai", wantDetailedOK: true,
		},
		{
			banner:  "CNXN\x00\x00\x00\x01device::H96 Max",
			wantIoT: true, wantVendor: "Generic Android", wantModelPart: "H96 Max", wantDetailedOK: true,
		},
	}
	for _, c := range cases {
		m, ok := db.Match(c.banner)
		if !ok {
			t.Errorf("no match for %q", c.banner)
			continue
		}
		if m.IoT != c.wantIoT {
			t.Errorf("%q: IoT = %v", c.banner, m.IoT)
		}
		if m.Vendor != c.wantVendor {
			t.Errorf("%q: vendor = %q, want %q", c.banner, m.Vendor, c.wantVendor)
		}
		if c.wantModelPart != "" && m.Model != c.wantModelPart {
			t.Errorf("%q: model = %q, want %q", c.banner, m.Model, c.wantModelPart)
		}
		if c.wantFirmware != "" && m.Firmware != c.wantFirmware {
			t.Errorf("%q: firmware = %q, want %q", c.banner, m.Firmware, c.wantFirmware)
		}
		if m.Detailed() != c.wantDetailedOK {
			t.Errorf("%q: Detailed() = %v", c.banner, m.Detailed())
		}
	}
}

func TestGenericEmbeddedIndicators(t *testing.T) {
	db := NewDB()
	iotBanners := []string{
		"HTTP/1.1 200 OK\r\nServer: Boa/0.94.13\r\n\r\n<title>login</title>",
		"SSH-2.0-dropbear_2014.63",
		"HTTP/1.1 200 OK\r\nServer: thttpd/2.25b",
		"RTSP/1.0 200 OK\r\nServer: Aposonic Rtsp Server 2.4.6",
		"\r\nlogin: ",
	}
	for _, b := range iotBanners {
		m, ok := db.Match(b)
		if !ok || !m.IoT {
			t.Errorf("%q should label IoT (ok=%v, m=%+v)", b, ok, m)
		}
	}
}

func TestNonIoTIndicators(t *testing.T) {
	db := NewDB()
	nonIoT := []string{
		"SSH-2.0-OpenSSH_7.4",
		"HTTP/1.1 200 OK\r\nServer: nginx/1.14.0 (Ubuntu)\r\n\r\n<title>Research Scanner</title>",
		"HTTP/1.1 200 OK\r\nServer: Apache/2.4.38 (Debian)\r\n\r\n<title>It works!</title>",
		"HTTP/1.1 200 OK\r\nServer: Microsoft-IIS/10.0",
	}
	for _, b := range nonIoT {
		m, ok := db.Match(b)
		if !ok {
			t.Errorf("%q should match a non-IoT rule", b)
			continue
		}
		if m.IoT {
			t.Errorf("%q labeled IoT by rule %s", b, m.Rule)
		}
	}
}

func TestSynologyBeatsNginx(t *testing.T) {
	// Order matters: the Synology banner contains "Server: nginx" but the
	// vendor rule must win.
	db := NewDB()
	m, ok := db.Match("HTTP/1.1 200 OK\r\nServer: nginx\r\n\r\n<title>Synology DiskStation</title>")
	if !ok || !m.IoT || m.Vendor != "Synology" {
		t.Errorf("Synology rule lost to nginx: %+v", m)
	}
}

func TestUnmatchedBanners(t *testing.T) {
	db := NewDB()
	// Device-like text no rule knows, plain text, and no banner at all.
	for _, b := range []string{"WEIRD-CAM x9000 ready", "hello world", ""} {
		if m, ok := db.Match(b); ok {
			t.Errorf("%q matched rule %s", b, m.Rule)
		}
	}
}

func TestMatchAnyPrefersDetail(t *testing.T) {
	db := NewDB()
	banners := []string{
		"SSH-2.0-dropbear_2014.63",                         // generic IoT
		"HTTP/1.1 200 OK\r\nServer: FoscamCamera/2.11.1.5", // detailed IoT
	}
	m, ok := db.MatchAny(banners)
	if !ok || m.Vendor != "Foscam" {
		t.Errorf("MatchAny should prefer the detailed match, got %+v", m)
	}
	// IoT beats non-IoT when both present (the device exposes an OpenSSH
	// management port alongside a camera banner).
	banners = []string{"SSH-2.0-OpenSSH_7.4", "HTTP/1.1 200 OK\r\nServer: Boa/0.94.13"}
	m, ok = db.MatchAny(banners)
	if !ok || !m.IoT {
		t.Errorf("MatchAny should prefer IoT evidence, got %+v", m)
	}
	if _, ok := db.MatchAny(nil); ok {
		t.Error("MatchAny(nil) should not match")
	}
}

// TestCatalogCoverage verifies every textual banner in the device catalog
// is recognized as IoT with the right vendor — the training loop depends
// on this link between the simulated world and the rule base.
func TestCatalogCoverage(t *testing.T) {
	db := NewDB()
	rng := rand.New(rand.NewSource(1))
	for i := range device.Catalog {
		m := &device.Catalog[i]
		fw := m.Firmwares[rng.Intn(len(m.Firmwares))]
		for _, st := range m.Services {
			if !st.Textual {
				continue
			}
			banner := st.Render(m, fw)
			got, ok := db.Match(banner)
			if !ok {
				t.Errorf("%s/%s port %d: banner unmatched: %q", m.Vendor, m.Name, st.Port, banner)
				continue
			}
			if !got.IoT {
				t.Errorf("%s banner labeled non-IoT by rule %s", m.Vendor, got.Rule)
			}
			if got.Vendor != m.Vendor {
				t.Errorf("%s banner attributed to %q (rule %s)", m.Vendor, got.Vendor, got.Rule)
			}
		}
	}
}

func TestNumRules(t *testing.T) {
	if n := len(NewDB().rules); n < 30 {
		t.Errorf("rule base has %d rules, want a realistic base (≥30)", n)
	}
}

// FuzzRecogMatch feeds arbitrary banners (attacker-chosen bytes) to the
// rule base, seeded with every banner in the device catalog. Matching
// never panics and is a pure function of the banner: two databases
// agree, and a captured model or firmware is text the banner carries.
func FuzzRecogMatch(f *testing.F) {
	for i := range device.Catalog {
		m := &device.Catalog[i]
		for _, st := range m.Services {
			for _, fw := range m.Firmwares {
				f.Add(st.Render(m, fw))
			}
		}
	}
	for i := range device.NonIoTProfiles {
		for _, st := range device.NonIoTProfiles[i].Services {
			f.Add(st.Template)
		}
	}
	a, b := NewDB(), NewDB()
	captured := map[string]rule{}
	for _, r := range a.rules {
		captured[r.name] = r
	}
	f.Fuzz(func(t *testing.T, banner string) {
		got, ok := a.Match(banner)
		again, okAgain := b.Match(banner)
		if got != again || ok != okAgain {
			t.Fatalf("two databases disagree on %q: %+v/%v vs %+v/%v", banner, got, ok, again, okAgain)
		}
		if ok {
			r := captured[got.Rule]
			if r.modelG >= 0 && !strings.Contains(banner, got.Model) {
				t.Fatalf("rule %s captured model %q, not in %q", got.Rule, got.Model, banner)
			}
			if got.Firmware != "" && !strings.Contains(banner, got.Firmware) {
				t.Fatalf("rule %s captured firmware %q, not in %q", got.Rule, got.Firmware, banner)
			}
		}
	})
}
