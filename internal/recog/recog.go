// Package recog is the banner-fingerprint rule base eX-IoT uses to turn
// application banners into labels: IoT vs non-IoT, plus vendor, device
// type, model, and firmware version where the banner carries them. It
// substitutes for the Recog and Ztag rule repositories; like them, the
// rules are ordered regular expressions with capture groups.
package recog

import "regexp"

// Match is the outcome of fingerprinting one banner.
type Match struct {
	// IoT is the binary label used for classifier training.
	IoT bool
	// Vendor/Type/Model/Firmware are filled when the banner is textual
	// enough to extract them (the paper's ~3 % case).
	Vendor   string
	Type     string
	Model    string
	Firmware string
	// Rule names the rule that matched.
	Rule string
}

// Detailed reports whether the match carries device details beyond the
// binary label.
func (m Match) Detailed() bool { return m.Vendor != "" }

// rule is one fingerprint entry.
type rule struct {
	name    string
	re      *regexp.Regexp
	iot     bool
	vendor  string
	devType string
	model   string // static model, unless modelGroup >= 0
	modelG  int    // capture group index for model (-1 = none)
	fwG     int    // capture group index for firmware (-1 = none)
}

// DB is an ordered fingerprint rule base. It is read-only once built.
type DB struct {
	rules []rule
}

// NewDB builds the default rule base.
func NewDB() *DB {
	mk := func(name, pattern string, iot bool, vendor, devType, model string, modelG, fwG int) rule {
		return rule{
			name: name, re: regexp.MustCompile(pattern), iot: iot,
			vendor: vendor, devType: devType, model: model,
			modelG: modelG, fwG: fwG,
		}
	}
	return &DB{
		rules: []rule{
			// --- Vendor-specific IoT rules (detailed extraction) ---
			mk("mikrotik-ftp", `220 (.+) FTP server \(MikroTik ([\d.]+)\)`, true, "MikroTik", "Router", "", 1, 2),
			mk("mikrotik-http", `(?i)mikrotik routeros ([\d.]+)`, true, "MikroTik", "Router", "RouterOS", -1, 1),
			mk("mikrotik-ssh", `SSH-2\.0-ROSSSH`, true, "MikroTik", "Router", "", -1, -1),
			mk("axis-ftp", `220 AXIS (.+) Network Camera ([\d.]+)`, true, "Axis", "IP Camera", "", 1, 2),
			mk("axis-title", `<title>AXIS</title>`, true, "Axis", "IP Camera", "", -1, -1),
			mk("foscam-http", `FoscamCamera/([\d.]+)`, true, "Foscam", "IP Camera", "", -1, 1),
			mk("foscam-title", `<title>IPCam Client</title>`, true, "Foscam", "IP Camera", "", -1, -1),
			mk("hikvision-realm", `realm="(DS-[0-9A-Za-z-]+)"`, true, "Hikvision", "IP Camera", "", 1, -1),
			mk("hikvision-rtsp", `HikvisionRtspServer ?([\dV.]*)`, true, "Hikvision", "IP Camera", "", -1, 1),
			mk("hikvision-appwebs", `App-webs/`, true, "Hikvision", "IP Camera", "", -1, -1),
			mk("dahua", `(?i)dahua`, true, "Dahua", "IP Camera", "", -1, -1),
			mk("dlink-dir", `DIR-(\d+)`, true, "D-Link", "Router", "", 0, -1),
			mk("tplink-realm", `TP-LINK Wireless N Router (\w+)`, true, "TP-Link", "Router", "", 1, -1),
			mk("huawei-hg", `HuaweiHomeGateway|HG532e`, true, "Huawei", "Modem/CPE", "HG532e", -1, -1),
			mk("netgear-realm", `NETGEAR (R?\w+)`, true, "Netgear", "Router", "", 1, -1),
			mk("netgear-upnp", `(R\d+) UPnP/`, true, "Netgear", "Router", "", 1, -1),
			mk("xiongmai-netsurv", `NETSurveillance WEB`, true, "Xiongmai", "DVR", "XM JPEG DVR", -1, -1),
			mk("avtech", `(?i)avtech`, true, "AVTECH", "DVR", "", -1, -1),
			mk("synology", `Synology DiskStation`, true, "Synology", "NAS", "DiskStation", -1, -1),
			mk("hp-laserjet", `HP LaserJet (\w+)`, true, "HP", "Printer", "", 1, -1),
			mk("adb-device", `CNXN.+device::(.+)`, true, "Generic Android", "TV Box", "", 1, -1),
			mk("gpon", `GPON Home (Gateway|Router)`, true, "GPON Generic", "Modem/CPE", "GPON Home Router", -1, -1),
			mk("zte-zxhn", `<title>(ZXHN [A-Z0-9]+)</title>`, true, "ZTE", "Modem/CPE", "", 1, -1),
			mk("zte-corp", `ZTE corp|ZTE CPE`, true, "ZTE", "Modem/CPE", "", -1, -1),
			mk("zte-f660", `F660 login:`, true, "ZTE", "Modem/CPE", "ZXHN F660", -1, -1),
			mk("aposonic", `(?i)aposonic`, true, "Aposonic", "DVR", "", -1, -1),
			mk("vivotek-title", `(?i)vivotek ?([A-Z0-9]*)`, true, "Vivotek", "IP Camera", "", 1, -1),
			mk("ubiquiti-airos", `<title>airOS</title>`, true, "Ubiquiti", "Router", "airOS device", -1, -1),
			mk("samsung-ipolis", `iPolis (DVR )?([A-Z0-9-]*)`, true, "Samsung", "DVR", "", 2, -1),
			mk("zyxel-rompager", `RomPager/[\d.]+ UPnP`, true, "Zyxel", "Modem/CPE", "", -1, -1),
			mk("zyxel-realm", `realm="(P-\d+[A-Z0-9-]*)"`, true, "Zyxel", "Modem/CPE", "", 1, -1),
			mk("qnap-nas", `QNAP Turbo NAS`, true, "QNAP", "NAS", "Turbo NAS", -1, -1),
			mk("panasonic-cam", `Panasonic network device`, true, "Panasonic", "IP Camera", "", -1, -1),
			mk("aposonic-telnet", `(A-S\d+[A-Za-z0-9]*)`, true, "Aposonic", "DVR", "", 1, -1),

			// --- Non-IoT rules: general-purpose server/desktop software ---
			mk("openssh", `SSH-2\.0-OpenSSH`, false, "", "", "", -1, -1),
			mk("nginx", `Server: nginx`, false, "", "", "", -1, -1),
			mk("apache", `Server: Apache/`, false, "", "", "", -1, -1),
			mk("iis", `Microsoft-IIS`, false, "", "", "", -1, -1),
			mk("debian-ubuntu", `\((Ubuntu|Debian)\)`, false, "", "", "", -1, -1),

			// --- Generic embedded indicators: IoT, no vendor detail ---
			mk("boa", `Server: Boa/`, true, "", "", "", -1, -1),
			mk("mini-httpd", `mini_httpd|uc-httpd|thttpd`, true, "", "", "", -1, -1),
			mk("goahead", `GoAhead`, true, "", "", "", -1, -1),
			mk("dropbear", `SSH-2\.0-dropbear`, true, "", "", "", -1, -1),
			mk("generic-rtsp", `Server: .*Rtsp Server`, true, "", "", "", -1, -1),
			mk("telnet-login", `login: $`, true, "", "", "", -1, -1),
		},
	}
}

// Match fingerprints one banner. Rules are evaluated in order; the first
// hit wins (vendor-specific before generic, as in Recog).
func (db *DB) Match(banner string) (Match, bool) {
	if banner == "" {
		return Match{}, false
	}
	for i := range db.rules {
		r := &db.rules[i]
		sub := r.re.FindStringSubmatch(banner)
		if sub == nil {
			continue
		}
		m := Match{IoT: r.iot, Vendor: r.vendor, Type: r.devType, Model: r.model, Rule: r.name}
		if r.modelG == 0 {
			m.Model = sub[0]
		} else if r.modelG > 0 && r.modelG < len(sub) {
			m.Model = sub[r.modelG]
		}
		if r.fwG > 0 && r.fwG < len(sub) && sub[r.fwG] != "" {
			m.Firmware = sub[r.fwG]
		}
		return m, true
	}
	return Match{}, false
}

// MatchAny fingerprints a set of banners (one host's grabbed services)
// and returns the most detailed match: detailed IoT > plain IoT >
// non-IoT.
func (db *DB) MatchAny(banners []string) (Match, bool) {
	var best Match
	found := false
	for _, b := range banners {
		m, ok := db.Match(b)
		if !ok {
			continue
		}
		if !found || better(m, best) {
			best = m
			found = true
		}
	}
	return best, found
}

// better reports whether a should replace b as a host-level match.
func better(a, b Match) bool {
	score := func(m Match) int {
		switch {
		case m.IoT && m.Detailed():
			return 3
		case m.IoT:
			return 2
		default:
			return 1
		}
	}
	return score(a) > score(b)
}
