// Package scanmod implements eX-IoT's Scan Module: it buffers newly
// detected scanners into batches (the paper: 100k records or 60
// minutes), drives the ZMap/ZGrab active measurements against them,
// applies the Recog/Ztag fingerprint database to the returned banners,
// and dumps unmatched device-like banners for rule authoring.
package scanmod

import (
	"slices"
	"time"

	"exiot/internal/packet"
	"exiot/internal/recog"
	"exiot/internal/telemetry"
	"exiot/internal/zmap"
)

// Telemetry handles for the scan-module stage (see docs/OPERATIONS.md).
var (
	// layerZmap times the probe sweep: one call per batch, items are hosts.
	layerZmap   = telemetry.Default().Layer("zmap")
	metScanners = telemetry.Default().CounterVec("exiot_scanmod_scanners_total",
		"Scanners actively measured, by fingerprint outcome (tagged|untagged).", "result")
	metPending = telemetry.Default().Gauge("exiot_scanmod_pending",
		"Scanners buffered awaiting the next batch flush.")
)

// Config controls batch accumulation.
type Config struct {
	// BatchSize flushes the buffer when this many scanners accumulate
	// (paper: 100k).
	BatchSize int
	// BatchWait flushes the buffer when the oldest entry has waited this
	// long (paper: 60 minutes).
	BatchWait time.Duration
}

// Default returns the paper's operating point scaled for simulation
// (batching thousands, not 100k, keeps laptop latency sane while
// exercising the same flush-by-size-or-age logic).
func Default() Config {
	return Config{BatchSize: 1000, BatchWait: 60 * time.Minute}
}

// Tagged is one scanner's active-measurement outcome: open ports,
// banners, and the banner fingerprint when one matched.
type Tagged struct {
	IP     packet.IP
	Result zmap.HostResult
	Match  *recog.Match
}

// FlushWindow is the timing of the most recent batch flush: when the
// probe sweep started and ended. Traced flows use it for their
// scanmod/zmap spans.
type FlushWindow struct {
	Start time.Time
	End   time.Time
}

// Module buffers scanners and probes them in batches.
type Module struct {
	cfg     Config
	scanner *zmap.Scanner
	db      *recog.DB

	pending     []packet.IP
	oldestAdded time.Time
	lastFlush   FlushWindow

	scanned int64
	tagged  int64
}

// New creates a scan module over the given scanner and rule base.
func New(cfg Config, scanner *zmap.Scanner, db *recog.DB) *Module {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = Default().BatchSize
	}
	if cfg.BatchWait <= 0 {
		cfg.BatchWait = Default().BatchWait
	}
	return &Module{cfg: cfg, scanner: scanner, db: db}
}

// Enqueue adds a newly detected scanner. now is the (simulated) wall
// clock. It returns a flushed batch when the size or age trigger fires,
// nil otherwise.
func (m *Module) Enqueue(ip packet.IP, now time.Time) []Tagged {
	if len(m.pending) == 0 {
		m.oldestAdded = now
	}
	m.pending = append(m.pending, ip)
	metPending.Set(float64(len(m.pending)))
	if len(m.pending) >= m.cfg.BatchSize || now.Sub(m.oldestAdded) >= m.cfg.BatchWait {
		return m.Flush()
	}
	return nil
}

// Pending returns the number of buffered scanners.
func (m *Module) Pending() int { return len(m.pending) }

// Flush probes every buffered scanner and returns the tagged results.
func (m *Module) Flush() []Tagged {
	if len(m.pending) == 0 {
		return nil
	}
	ips := m.pending
	m.pending = nil
	metPending.Set(0)
	m.lastFlush = FlushWindow{Start: time.Now()}
	results := m.scanner.ScanBatch(ips)
	m.lastFlush.End = time.Now()
	layerZmap.Add(m.lastFlush.End.Sub(m.lastFlush.Start), len(ips))
	out := make([]Tagged, len(ips))
	for i := range ips {
		out[i] = Tagged{IP: ips[i], Result: results[i]}
		if results[i].HasBanner() {
			if match, ok := m.db.MatchAny(results[i].BannerTexts()); ok {
				matchCopy := match
				out[i].Match = &matchCopy
				m.tagged++
			}
		}
		m.scanned++
		if out[i].Match != nil {
			metScanners.With("tagged").Inc()
		} else {
			metScanners.With("untagged").Inc()
		}
	}
	return out
}

// LastFlush returns the timing of the most recent batch flush.
func (m *Module) LastFlush() FlushWindow { return m.lastFlush }

// PortsPerHost returns the scanner's per-host probe count.
func (m *Module) PortsPerHost() int { return m.scanner.NumPorts() }

// Stats returns (scanned, tagged) lifetime counters.
func (m *Module) Stats() (scanned, tagged int64) {
	return m.scanned, m.tagged
}

// RestoreStats reinstates the lifetime counters from a snapshot so a
// recovered server's dashboard totals match the uninterrupted run.
func (m *Module) RestoreStats(scanned, tagged int64) {
	m.scanned, m.tagged = scanned, tagged
}

// Buffer returns the scanners awaiting the next flush, in arrival order
// (an IP detected twice sits there twice), and when the oldest was
// added: with Stats, the module's whole mutable state.
func (m *Module) Buffer() (pending []packet.IP, oldestAdded time.Time) {
	return slices.Clone(m.pending), m.oldestAdded
}

// RestoreBuffer reinstates a buffer taken with Buffer, so a recovered
// server flushes the same batch at the same arrival as the
// uninterrupted run.
func (m *Module) RestoreBuffer(pending []packet.IP, oldestAdded time.Time) {
	m.pending, m.oldestAdded = slices.Clone(pending), oldestAdded
	metPending.Set(float64(len(m.pending)))
}

// UnknownBanners exposes the rule base's unknown-banner dump.
func (m *Module) UnknownBanners() []string {
	return m.db.UnknownBanners()
}
