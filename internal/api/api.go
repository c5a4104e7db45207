// Package api exposes eX-IoT's CTI feed the way the paper does: an
// authenticated RESTful API returning JSON, backing a front-end with an
// Internet snapshot, dashboard aggregations, a record query builder, and
// e-mail alarm registration.
package api

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"exiot/internal/campaign"
	"exiot/internal/feed"
	"exiot/internal/feedserve"
	"exiot/internal/notify"
	"exiot/internal/packet"
	"exiot/internal/telemetry"
	"exiot/internal/trace"
)

// apiLatencyBuckets resolve request service times from the snapshot
// fast path (tens of microseconds) up to store-walked bulk exports.
var apiLatencyBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Telemetry handles for the API layer (see docs/OPERATIONS.md).
var (
	metAPIRequests = telemetry.Default().CounterVec("exiot_api_requests_total",
		"API requests served, by endpoint name and HTTP status code.", "endpoint", "code")
	metAPILatency = telemetry.Default().HistogramVec("exiot_api_latency_seconds",
		"Request service time by endpoint (SSE connections report on disconnect).",
		apiLatencyBuckets, "endpoint")
	metConditional = telemetry.Default().CounterVec("exiot_api_conditional_total",
		"Snapshot-served requests by conditional outcome: hit = If-None-Match matched (304, no body), miss = full body sent.",
		"endpoint", "result")
)

// Query filters feed records.
type Query struct {
	Label   string // "IoT" / "non-IoT" / ""
	Country string // country code
	ASN     int
	Active  *bool
	Since   time.Time
	Prefix  *packet.Prefix
	Limit   int

	// Cursor and SinceSeq switch /records and /export into
	// sequence-ordered delta mode over the feed snapshot: return records
	// whose change sequence is greater than the given value. Cursor is
	// the pagination continuation (`?cursor=`); SinceSeq is the same
	// filter spelled `?since=<integer>`. Both require the feed cache.
	Cursor   *uint64
	SinceSeq *uint64
}

// seqMode reports whether the query asks for sequence-ordered deltas,
// and the cursor to resume after.
func (q *Query) seqMode() (uint64, bool) {
	if q.Cursor == nil && q.SinceSeq == nil {
		return 0, false
	}
	after := uint64(0)
	if q.Cursor != nil {
		after = *q.Cursor
	}
	if q.SinceSeq != nil && *q.SinceSeq > after {
		after = *q.SinceSeq
	}
	return after, true
}

// filters reports whether any record-content filter is set (the
// snapshot fast path serves unfiltered windows straight from
// pre-marshaled lines).
func (q *Query) filters() bool {
	return q.Label != "" || q.Country != "" || q.ASN != 0 || q.Active != nil ||
		!q.Since.IsZero() || q.Prefix != nil
}

// Snapshot is the front-end's high-level real-time view.
type Snapshot struct {
	GeneratedAt    time.Time      `json:"generated_at"`
	TotalRecords   int            `json:"total_records"`
	ActiveRecords  int            `json:"active_records"`
	IoTRecords     int            `json:"iot_records"`
	BenignRecords  int            `json:"benign_records"`
	TopCountries   map[string]int `json:"top_countries"`
	TopPorts       map[string]int `json:"top_ports"`
	TopVendors     map[string]int `json:"top_vendors"`
	RecordsPerHour float64        `json:"records_per_hour"`
}

// Source is the feed backend the API queries (implemented by the
// pipeline).
type Source interface {
	Records(q Query) []feed.Record
	RecordByIP(ip string) (feed.Record, bool)
	Snapshot() Snapshot
}

// TrafficHour is one hour of aggregated telescope traffic statistics —
// what the paper's receiver stores in MongoDB from the flow detector's
// per-second reports.
type TrafficHour struct {
	Hour         time.Time      `json:"hour"`
	Total        int64          `json:"total"`
	TCP          int64          `json:"tcp"`
	UDP          int64          `json:"udp"`
	ICMP         int64          `json:"icmp"`
	Backscatter  int64          `json:"backscatter"`
	NewScanFlows int64          `json:"new_scan_flows"`
	TopPorts     map[uint16]int `json:"top_ports"`
	PeakPPS      int            `json:"peak_pps"`
	Seconds      int            `json:"seconds"`
}

// TrafficSource is optionally implemented by backends that aggregate the
// flow detector's per-second reports into hourly traffic statistics.
type TrafficSource interface {
	Traffic() []TrafficHour
}

// WhyReport answers "why is this IP in the feed?": the record with its
// provenance summary plus, when the event was traced and the trace is
// still retained, the full span-by-span timing lineage.
type WhyReport struct {
	Record feed.Record `json:"record"`
	// Trace is the retained timing detail for the record's trace ID (nil
	// when the event was untraced or the trace rotated out of the store).
	Trace *trace.Detail `json:"trace,omitempty"`
}

// WhySource is optionally implemented by backends that can join a feed
// record with its trace lineage.
type WhySource interface {
	Why(ip string) (WhyReport, bool)
}

// Server is the authenticated REST API server.
type Server struct {
	source   Source
	notifier *notify.Notifier

	mu   sync.RWMutex
	keys map[string]string // token → client name
	// cache is the optional snapshot-backed feed read path (nil = every
	// read walks the document store, the pre-distribution behavior).
	cache *feedserve.Cache
	// tracker is the cross-hour campaign view (nil = an empty, untracked
	// campaign table).
	tracker *campaign.Tracker

	metrics *telemetry.Registry
	health  *telemetry.Health

	mux *http.ServeMux
}

// Endpoint describes one registered API route — the same table NewServer
// wires into its mux, exposed so docs/API.md can be diffed against the
// live surface.
type Endpoint struct {
	Method string `json:"method"`
	Path   string `json:"path"`
	// Name labels the endpoint in exiot_api_requests_total.
	Name string `json:"name"`
	// Auth reports whether the route requires an API key.
	Auth bool `json:"auth"`
}

// route pairs an Endpoint with its handler.
type route struct {
	Endpoint
	handler http.HandlerFunc
}

// routes is the single source of truth for the API surface: the mux, the
// per-endpoint request counter, and Endpoints() all derive from it.
func (s *Server) routes() []route {
	ep := func(method, path, name string, auth bool, h http.HandlerFunc) route {
		return route{Endpoint{Method: method, Path: path, Name: name, Auth: auth}, h}
	}
	return []route{
		ep("GET", "/api/v1/health", "health", false, s.handleHealth),
		ep("GET", "/metrics", "metrics", false, s.handleMetrics),
		ep("GET", "/healthz", "healthz", false, s.handleHealthz),
		ep("GET", "/api/v1/snapshot", "snapshot", true, s.handleSnapshot),
		ep("GET", "/api/v1/records", "records", true, s.handleRecords),
		ep("GET", "/api/v1/records/{ip}", "record_by_ip", true, s.handleRecordByIP),
		ep("GET", "/api/v1/records/{ip}/why", "record_why", true, WhyHandler(s.source)),
		ep("GET", "/api/v1/stats/countries", "stats_countries", true, s.statsHandler("countries")),
		ep("GET", "/api/v1/stats/ports", "stats_ports", true, s.statsHandler("ports")),
		ep("GET", "/api/v1/stats/vendors", "stats_vendors", true, s.statsHandler("vendors")),
		ep("GET", "/api/v1/stats/traffic", "stats_traffic", true, s.handleTraffic),
		ep("POST", "/api/v1/alerts", "alerts", true, s.handleAlerts),
		ep("GET", "/api/v1/campaigns", "campaigns", true, s.handleCampaigns),
		ep("GET", "/api/v1/export", "export", true, s.handleExport),
		ep("GET", "/api/v1/events", "events", true, s.handleEvents),
	}
}

// NewServer builds the API over a feed source; notifier may be nil to
// disable alarm registration. Every route is wrapped with the request
// counter; /metrics and /healthz serve the process-wide telemetry.
func NewServer(source Source, notifier *notify.Notifier) *Server {
	s := &Server{
		source:   source,
		notifier: notifier,
		keys:     make(map[string]string),
		metrics:  telemetry.Default(),
		health:   telemetry.DefaultHealth(),
	}
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		h := rt.handler
		if rt.Auth {
			h = s.auth(h)
		}
		mux.HandleFunc(rt.Method+" "+rt.Path, s.metered(rt.Name, h))
	}
	s.mux = mux
	return s
}

// Endpoints returns the API surface in registration order (docs tests).
func (s *Server) Endpoints() []Endpoint {
	rts := s.routes()
	out := make([]Endpoint, len(rts))
	for i, rt := range rts {
		out[i] = rt.Endpoint
	}
	return out
}

// SetFeedCache installs the snapshot-backed feed read path. With a
// cache, /records serves from the atomically-swapped snapshot (cursor
// pagination, ETags, 304s), /export serves the precomputed bulk export,
// and /events streams record deltas. Without one (nil), every read
// walks the document store and the cursor/SSE surface answers 501.
func (s *Server) SetFeedCache(c *feedserve.Cache) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache = c
}

// feedCache returns the installed cache, or nil.
func (s *Server) feedCache() *feedserve.Cache {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cache
}

// SetCampaignTracker installs the cross-hour campaign view behind
// /api/v1/campaigns: stable IDs, first/last seen, status, history.
func (s *Server) SetCampaignTracker(t *campaign.Tracker) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracker = t
}

// campaignTracker returns the installed tracker, or nil.
func (s *Server) campaignTracker() *campaign.Tracker {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tracker
}

// SetTelemetry overrides the registry and health tracker behind /metrics
// and /healthz (tests inject isolated instances; nil keeps the current
// one).
func (s *Server) SetTelemetry(reg *telemetry.Registry, h *telemetry.Health) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if reg != nil {
		s.metrics = reg
	}
	if h != nil {
		s.health = h
	}
}

// statusRecorder captures the status code a handler writes so the
// request counter can label it. Go 1.22's mux has no request-pattern
// accessor, hence the explicit per-route name in metered.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so SSE frames leave the
// process as they are written, not when the connection closes.
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// metered wraps a handler with the exiot_api_requests_total counter and
// the per-endpoint latency histogram.
func (s *Server) metered(name string, next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		next(sr, r)
		metAPILatency.With(name).Observe(time.Since(start).Seconds())
		metAPIRequests.With(name, strconv.Itoa(sr.code)).Inc()
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	reg := s.metrics
	s.mu.RUnlock()
	telemetry.MetricsHandler(reg).ServeHTTP(w, r)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.health
	s.mu.RUnlock()
	telemetry.HealthzHandler(h).ServeHTTP(w, r)
}

var _ http.Handler = (*Server)(nil)

// ServeHTTP dispatches API requests.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// AddKey registers an API key for a named client.
func (s *Server) AddKey(token, client string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keys[token] = client
}

// auth wraps a handler with bearer/X-API-Key authentication.
func (s *Server) auth(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		token := r.Header.Get("X-API-Key")
		if token == "" {
			if h := r.Header.Get("Authorization"); strings.HasPrefix(h, "Bearer ") {
				token = strings.TrimPrefix(h, "Bearer ")
			}
		}
		s.mu.RLock()
		_, ok := s.keys[token]
		s.mu.RUnlock()
		if !ok {
			writeError(w, http.StatusUnauthorized, "missing or invalid API key")
			return
		}
		next(w, r)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.source.Snapshot())
}

func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	q, err := parseQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if c := s.feedCache(); c != nil && s.serveRecordsFromSnapshot(w, r, c, q) {
		return
	}
	if _, ok := q.seqMode(); ok {
		writeError(w, http.StatusNotImplemented, "cursor pagination requires the feed cache")
		return
	}
	records := s.source.Records(q)
	writeJSON(w, http.StatusOK, map[string]any{
		"count":   len(records),
		"records": records,
	})
}

// handleExport streams the feed as NDJSON — the paper's bulk raw-data
// channel for researchers and operators. Filters mirror /records. With
// the feed cache installed, the unfiltered bulk path serves the
// precomputed export buffer, or its gzip form, with a strong ETag.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	q, err := parseQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if r.URL.Query().Get("limit") == "" {
		q.Limit = 0 // bulk export defaults to everything
	}
	if c := s.feedCache(); c != nil && s.serveExportFromSnapshot(w, r, c, q) {
		return
	}
	if _, ok := q.seqMode(); ok {
		writeError(w, http.StatusNotImplemented, "cursor pagination requires the feed cache")
		return
	}
	records := s.source.Records(q)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Content-Disposition", `attachment; filename="exiot-export.ndjson"`)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	for i := range records {
		if err := enc.Encode(&records[i]); err != nil {
			return // client went away mid-stream
		}
	}
}

func (s *Server) handleRecordByIP(w http.ResponseWriter, r *http.Request) {
	ip := r.PathValue("ip")
	if _, err := packet.ParseIP(ip); err != nil {
		writeError(w, http.StatusBadRequest, "invalid ip")
		return
	}
	rec, ok := s.source.RecordByIP(ip)
	if !ok {
		writeError(w, http.StatusNotFound, "no record for "+ip)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// WhyHandler serves a record's full provenance: the feed entry plus its
// retained trace detail. A src that cannot join the two (no WhySource,
// or nil) answers 501. /api/v1/records/{ip}/why and the console's
// /console/api/record/{ip} are both this handler.
func WhyHandler(src Source) http.HandlerFunc {
	ws, ok := src.(WhySource)
	return func(w http.ResponseWriter, r *http.Request) {
		if !ok {
			writeError(w, http.StatusNotImplemented, "backend does not track record provenance")
			return
		}
		ip := r.PathValue("ip")
		if _, err := packet.ParseIP(ip); err != nil {
			writeError(w, http.StatusBadRequest, "invalid ip")
			return
		}
		rep, ok := ws.Why(ip)
		if !ok {
			writeError(w, http.StatusNotFound, "no record for "+ip)
			return
		}
		writeJSON(w, http.StatusOK, rep)
	}
}

func (s *Server) statsHandler(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		snap := s.source.Snapshot()
		var data map[string]int
		switch kind {
		case "countries":
			data = snap.TopCountries
		case "ports":
			data = snap.TopPorts
		case "vendors":
			data = snap.TopVendors
		}
		writeJSON(w, http.StatusOK, data)
	}
}

// alertRequest is the alarm-registration payload.
type alertRequest struct {
	Prefix string `json:"prefix"`
	Email  string `json:"email"`
}

func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	if s.notifier == nil {
		writeError(w, http.StatusServiceUnavailable, "notifications disabled")
		return
	}
	var req alertRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body")
		return
	}
	prefix, err := packet.ParsePrefix(req.Prefix)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid prefix: "+err.Error())
		return
	}
	if !strings.Contains(req.Email, "@") {
		writeError(w, http.StatusBadRequest, "invalid email")
		return
	}
	s.notifier.Subscribe(prefix, req.Email)
	writeJSON(w, http.StatusCreated, map[string]string{
		"status": "subscribed",
		"prefix": prefix.String(),
		"email":  req.Email,
	})
}

func (s *Server) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	CampaignsHandler(s.campaignTracker())(w, r)
}

// TrackedCampaignJSON is one tracked campaign on the wire: its scan
// signature and membership plus the identity and lifetime the tracker
// maintains.
type TrackedCampaignJSON struct {
	ID        string                  `json:"id"`
	Signature string                  `json:"signature"`
	Tool      string                  `json:"tool,omitempty"`
	Ports     []uint16                `json:"ports"`
	Devices   int                     `json:"devices"`
	Records   int                     `json:"records"`
	Countries map[string]int          `json:"countries"`
	FirstSeen time.Time               `json:"first_seen"`
	LastSeen  time.Time               `json:"last_seen"`
	Status    string                  `json:"status"` // "active" | "decaying"
	Updates   int                     `json:"updates"`
	History   []campaign.HistoryPoint `json:"history,omitempty"`
}

// CampaignsHandler serves tr's cross-hour campaign table, dropping
// campaigns with fewer than the optional min_size devices. A nil tracker
// serves an empty table marked untracked. /api/v1/campaigns and the
// console's /console/api/campaigns are both this handler.
func CampaignsHandler(tr *campaign.Tracker) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		minSize := 0
		if v := r.URL.Query().Get("min_size"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				writeError(w, http.StatusBadRequest, "invalid min_size")
				return
			}
			minSize = n
		}
		if tr == nil {
			writeJSON(w, http.StatusOK, map[string]any{
				"count": 0, "tracked": false, "campaigns": []TrackedCampaignJSON{},
			})
			return
		}
		tracked, asOf := tr.Campaigns()
		out := make([]TrackedCampaignJSON, 0, len(tracked))
		for i := range tracked {
			c := &tracked[i]
			if c.Size() < minSize {
				continue
			}
			status := "active"
			if !c.Active(asOf) {
				status = "decaying"
			}
			out = append(out, TrackedCampaignJSON{
				ID:        c.ID,
				Signature: c.Signature.String(),
				Tool:      c.Signature.Tool,
				Ports:     c.Signature.Ports,
				Devices:   c.Size(),
				Records:   c.Records,
				Countries: c.Countries,
				FirstSeen: c.FirstSeen,
				LastSeen:  c.LastSeen,
				Status:    status,
				Updates:   c.Updates,
				History:   c.History,
			})
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"count":     len(out),
			"tracked":   true,
			"as_of":     asOf,
			"campaigns": out,
		})
	}
}

// handleTraffic serves the hourly telescope traffic statistics when the
// backend provides them.
func (s *Server) handleTraffic(w http.ResponseWriter, _ *http.Request) {
	ts, ok := s.source.(TrafficSource)
	if !ok {
		writeError(w, http.StatusNotImplemented, "backend does not aggregate traffic reports")
		return
	}
	hours := ts.Traffic()
	writeJSON(w, http.StatusOK, map[string]any{"count": len(hours), "hours": hours})
}

func parseQuery(r *http.Request) (Query, error) {
	var q Query
	v := r.URL.Query()
	q.Label = v.Get("label")
	if q.Label != "" && q.Label != feed.LabelIoT && q.Label != feed.LabelNonIoT {
		return q, fmt.Errorf("label must be %q or %q", feed.LabelIoT, feed.LabelNonIoT)
	}
	q.Country = v.Get("country")
	if asn := v.Get("asn"); asn != "" {
		n, err := strconv.Atoi(asn)
		if err != nil {
			return q, fmt.Errorf("invalid asn %q", asn)
		}
		q.ASN = n
	}
	if act := v.Get("active"); act != "" {
		b, err := strconv.ParseBool(act)
		if err != nil {
			return q, fmt.Errorf("invalid active %q", act)
		}
		q.Active = &b
	}
	if since := v.Get("since"); since != "" {
		// Dual form: an RFC3339 timestamp filters by detection time, a
		// bare integer is a change-sequence cursor for snapshot deltas.
		if n, err := strconv.ParseUint(since, 10, 64); err == nil {
			q.SinceSeq = &n
		} else {
			ts, err := time.Parse(time.RFC3339, since)
			if err != nil {
				return q, fmt.Errorf("invalid since %q (want RFC3339 or a change sequence)", since)
			}
			q.Since = ts
		}
	}
	if cur := v.Get("cursor"); cur != "" {
		n, err := strconv.ParseUint(cur, 10, 64)
		if err != nil {
			return q, fmt.Errorf("invalid cursor %q", cur)
		}
		q.Cursor = &n
	}
	if pfx := v.Get("prefix"); pfx != "" {
		p, err := packet.ParsePrefix(pfx)
		if err != nil {
			return q, err
		}
		q.Prefix = &p
	}
	q.Limit = 100
	if lim := v.Get("limit"); lim != "" {
		n, err := strconv.Atoi(lim)
		if err != nil || n < 0 {
			return q, fmt.Errorf("invalid limit %q", lim)
		}
		q.Limit = n
	}
	return q, nil
}

// Matches reports whether rec satisfies the query (shared by feed
// backends).
func (q *Query) Matches(rec *feed.Record) bool {
	if q.Label != "" && rec.Label != q.Label {
		return false
	}
	if q.Country != "" && rec.CountryCode != q.Country {
		return false
	}
	if q.ASN != 0 && rec.ASN != q.ASN {
		return false
	}
	if q.Active != nil && rec.Active != *q.Active {
		return false
	}
	if !q.Since.IsZero() && rec.DetectedAt.Before(q.Since) {
		return false
	}
	if q.Prefix != nil {
		ip, err := packet.ParseIP(rec.IP)
		if err != nil || !q.Prefix.Contains(ip) {
			return false
		}
	}
	return true
}

// keyFilter is a query's record filters compiled for snapshot keys.
type keyFilter struct {
	none              bool // the query sets no record filter
	byLabel, byActive bool
	byPrefix          bool
	label             feedserve.Label
	active            bool
	country           string
	asn               int
	since             feedserve.Time
	prefix            packet.Prefix
}

// keyFilter compiles q's record filters for snapshot keys. For a query
// parseQuery returned, the filter passes a key exactly when Matches
// passes the record the key was taken from, and it parses nothing per
// record.
func (q *Query) keyFilter() keyFilter {
	f := keyFilter{
		none:     !q.filters(),
		byLabel:  q.Label != "",
		label:    feedserve.LabelOf(q.Label),
		country:  q.Country,
		asn:      q.ASN,
		since:    feedserve.Time{Sec: math.MinInt64},
		byActive: q.Active != nil,
		byPrefix: q.Prefix != nil,
	}
	if !q.Since.IsZero() {
		f.since = feedserve.TimeOf(q.Since)
	}
	if f.byActive {
		f.active = *q.Active
	}
	if f.byPrefix {
		f.prefix = *q.Prefix
	}
	return f
}

// matcher returns the filter as a snapshot's matcher: nil when it
// filters nothing, so the snapshot takes every item.
func (f *keyFilter) matcher() func(*feedserve.Key) bool {
	if f.none {
		return nil
	}
	return f.match
}

// match reports whether k passes the filter.
func (f *keyFilter) match(k *feedserve.Key) bool {
	return (!f.byLabel || k.Label == f.label) &&
		(f.country == "" || k.Country == f.country) &&
		(f.asn == 0 || k.ASN == f.asn) &&
		(!f.byActive || k.Active == f.active) &&
		!k.DetectedAt.Before(f.since) &&
		(!f.byPrefix || !k.BadIP && f.prefix.Contains(k.IP))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // header already sent; encode errors are unrecoverable
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
