// Package console embeds the operator dashboard: a single-page app
// (vanilla JS + SVG, no build step) served from the operator mux at
// /console/, backed by a JSON stats API over the process' own telemetry
// registry, trace store, campaign tracker, and feed snapshot cache.
//
// The console is strictly read-only and provably inert: it samples
// counters the packet path already maintains (atomic loads on a tick,
// never per-packet work), so enabling it changes neither the feed's
// exported bytes nor the packet path's allocation profile — the
// equivalence test at the repo root pins both.
package console

import (
	"embed"
	"io/fs"
	"net/http"
	"sync"
	"time"

	"exiot/internal/api"
	"exiot/internal/campaign"
	"exiot/internal/feedserve"
	"exiot/internal/telemetry"
	"exiot/internal/trace"
)

//go:embed assets
var assets embed.FS

// Telemetry handles for the console itself (see docs/OPERATIONS.md).
var (
	metConsoleRequests = telemetry.Default().CounterVec("exiot_console_requests_total",
		"Console requests served, by endpoint name.", "endpoint")
	metConsoleTicks = telemetry.Default().Counter("exiot_console_ticks_total",
		"Stats sampler ticks taken (one ring point each).")
	metConsoleSSE = telemetry.Default().Gauge("exiot_console_sse_clients",
		"Console event-stream connections currently open.")
)

// Config wires the console to the process' observability surfaces.
// Every field except Registry is optional: panels backed by an absent
// surface render empty instead of failing.
type Config struct {
	// Source answers snapshot and record drill-down queries (the same
	// backend the public API serves). The drill-down needs it to be an
	// api.WhySource too, and answers 501 without one.
	Source api.Source
	// Traces is the completed-flow store behind the slowest-traces panel.
	Traces *trace.Store
	// Registry is the metric registry sampled every tick. Defaults to
	// telemetry.Default().
	Registry *telemetry.Registry
	// Health feeds the component health panel.
	Health *telemetry.Health
	// Tracker is the cross-hour campaign view. The console only reads
	// it; whoever builds it keeps it updated (exiotd does so from the
	// feed cache's rebuild hook).
	Tracker *campaign.Tracker
	// Feed relays live record frames into the console event stream.
	Feed *feedserve.Cache
	// Clock overrides time.Now (tests).
	Clock func() time.Time
}

// The console samples stats every tickEvery and keeps ringSize points:
// 30 minutes.
const (
	tickEvery = 2 * time.Second
	ringSize  = 900
)

// VolumePoint is one stats tick in the feed-volume ring: per-interval
// deltas of the pipeline's volume counters plus the active-records
// level.
type VolumePoint struct {
	At time.Time `json:"at"`
	// Deltas since the previous tick.
	Records  float64 `json:"records"`
	FlowEnds float64 `json:"flow_ends"`
	Events   float64 `json:"events"`
	Packets  float64 `json:"packets"`
	// Level gauges sampled at the tick.
	Active float64 `json:"active"`
}

// volumeFamilies are the counter families differenced into ring points;
// packets are the trw layer's items.
var volumeFamilies = struct{ records, flowEnds, events, active string }{
	records:  "exiot_feed_records_total",
	flowEnds: "exiot_feed_flow_ends_total",
	events:   "exiot_sampler_events_total",
	active:   "exiot_feed_active_records",
}

// Console is the embedded operator dashboard.
type Console struct {
	cfg Config
	// tick is the sampling cadence, tickEvery unless a test shortens it.
	tick time.Duration

	mu   sync.Mutex
	ring []VolumePoint // bounded, oldest first
	last *VolumePoint  // the previous tick's counter totals

	done chan struct{}
	once sync.Once
}

// New builds a console. Call Register to mount it and Start to begin
// background sampling (tests may drive Tick directly instead).
func New(cfg Config) *Console {
	if cfg.Registry == nil {
		cfg.Registry = telemetry.Default()
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Console{cfg: cfg, tick: tickEvery, done: make(chan struct{})}
}

// Tick takes one stats sample at now: difference the volume counters
// against the previous tick and append a ring point.
func (c *Console) Tick(now time.Time) {
	reg := c.cfg.Registry
	total := VolumePoint{
		Records:  reg.Sum(volumeFamilies.records),
		FlowEnds: reg.Sum(volumeFamilies.flowEnds),
		Events:   reg.Sum(volumeFamilies.events),
	}
	for _, l := range reg.LayerStats() {
		if l.Layer == "trw" {
			total.Packets = float64(l.Items)
		}
	}
	p := VolumePoint{At: now, Active: reg.Sum(volumeFamilies.active)}

	c.mu.Lock()
	if last := c.last; last != nil {
		// Counters are monotonic; clamp anyway so a registry reset (tests)
		// cannot chart a negative rate.
		p.Records = max(total.Records-last.Records, 0)
		p.FlowEnds = max(total.FlowEnds-last.FlowEnds, 0)
		p.Events = max(total.Events-last.Events, 0)
		p.Packets = max(total.Packets-last.Packets, 0)
	}
	c.last = &total
	c.ring = append(c.ring, p)
	if len(c.ring) > ringSize {
		c.ring = c.ring[len(c.ring)-ringSize:]
	}
	c.mu.Unlock()
	metConsoleTicks.Inc()
}

// volume copies the current ring, oldest first.
func (c *Console) volume() []VolumePoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]VolumePoint(nil), c.ring...)
}

// Start launches the background sampling loop; Close stops it.
func (c *Console) Start() {
	go func() {
		t := time.NewTicker(c.tick)
		defer t.Stop()
		for {
			select {
			case <-c.done:
				return
			case <-t.C:
				c.Tick(c.cfg.Clock())
			}
		}
	}()
}

// Close stops background sampling. Idempotent.
func (c *Console) Close() {
	c.once.Do(func() { close(c.done) })
}

// routes is the console surface: the mux is built from it and the docs
// drift tests read it, so they see exactly what is mounted.
func (c *Console) routes() []struct {
	api.Endpoint
	handler http.HandlerFunc
} {
	ep := func(method, path, name string, h http.HandlerFunc) struct {
		api.Endpoint
		handler http.HandlerFunc
	} {
		return struct {
			api.Endpoint
			handler http.HandlerFunc
		}{api.Endpoint{Method: method, Path: path, Name: name}, h}
	}
	return []struct {
		api.Endpoint
		handler http.HandlerFunc
	}{
		ep("GET", "/console/api/overview", "console_overview", c.handleOverview),
		ep("GET", "/console/api/traces", "console_traces", c.handleTraces),
		ep("GET", "/console/api/campaigns", "console_campaigns", api.CampaignsHandler(c.cfg.Tracker)),
		ep("GET", "/console/api/record/{ip}", "console_record", api.WhyHandler(c.cfg.Source)),
		ep("GET", "/console/api/events", "console_events", c.handleEvents),
	}
}

// Register mounts the dashboard and its API on mux (the operator mux,
// alongside /metrics and /traces — never the authenticated public API).
func (c *Console) Register(mux *http.ServeMux) {
	for _, rt := range c.routes() {
		h := rt.handler
		name := rt.Name
		mux.HandleFunc(rt.Method+" "+rt.Path, func(w http.ResponseWriter, r *http.Request) {
			metConsoleRequests.With(name).Inc()
			h(w, r)
		})
	}
	sub, err := fs.Sub(assets, "assets")
	if err != nil {
		panic("console: embedded assets missing: " + err.Error()) // unreachable: embed is compile-time
	}
	mux.Handle("GET /console/", http.StripPrefix("/console/", http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) {
			metConsoleRequests.With("console_static").Inc()
			http.FileServerFS(sub).ServeHTTP(w, r)
		})))
}
