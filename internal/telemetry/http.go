package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"time"
)

// MetricsHandler serves the registry in Prometheus text exposition
// format (GET /metrics).
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// MetricsJSON is the GET /metrics.json payload: every registered
// family with live series values and histogram quantiles, stamped with
// the render time.
type MetricsJSON struct {
	GeneratedAt time.Time        `json:"generated_at"`
	Families    []FamilySnapshot `json:"families"`
}

// MetricsJSONHandler serves the registry as structured JSON
// (GET /metrics.json): the same state /metrics exposes, but typed —
// counters and gauges as numbers, histograms with cumulative buckets
// and p50/p90/p99 estimates — for dashboards and tooling that would
// otherwise have to parse the Prometheus text format.
func MetricsJSONHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetEscapeHTML(false)
		_ = enc.Encode(MetricsJSON{GeneratedAt: time.Now(), Families: r.Export()})
	})
}

// HealthzHandler serves the health report as JSON: HTTP 200 while every
// started component beats within its window, 503 once any stalls.
func HealthzHandler(h *Health) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		rep := h.Evaluate(time.Now())
		w.Header().Set("Content-Type", "application/json")
		status := http.StatusOK
		if !rep.Healthy {
			status = http.StatusServiceUnavailable
		}
		w.WriteHeader(status)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	})
}

// NewMux builds the operator-facing telemetry mux over the process-wide
// registry and health: /metrics, /metrics.json, /healthz, and the
// net/http/pprof handlers under /debug/pprof/. exiotd serves this on
// -telemetry-addr, separate from the public API.
func NewMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", MetricsHandler(Default()))
	mux.Handle("GET /metrics.json", MetricsJSONHandler(Default()))
	mux.Handle("GET /healthz", HealthzHandler(DefaultHealth()))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
