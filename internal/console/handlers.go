package console

// The console stats API. Every handler reads point-in-time copies of
// process state (registry snapshots, trace store copies, tracked
// campaign copies) — nothing here can mutate pipeline state or block a
// hot path.

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"exiot/internal/api"
	"exiot/internal/feedserve"
	"exiot/internal/packet"
	"exiot/internal/telemetry"
	"exiot/internal/trace"
)

// ShardStatus is one ingest shard's merge-barrier state (empty on a
// single-node deployment).
type ShardStatus struct {
	Shard    string  `json:"shard"`
	Seq      float64 `json:"seq"`
	Pending  float64 `json:"pending_frames"`
	LagHours float64 `json:"lag_hours"`
}

// FeedStatus summarizes the snapshot cache behind the feed.
type FeedStatus struct {
	Records int       `json:"records"`
	LastSeq uint64    `json:"last_seq"`
	BuiltAt time.Time `json:"built_at"`
}

// Overview is the /console/api/overview payload — everything the
// dashboard's headline panels render in one request.
type Overview struct {
	GeneratedAt time.Time             `json:"generated_at"`
	TickSeconds float64               `json:"tick_seconds"`
	Snapshot    *api.Snapshot         `json:"snapshot,omitempty"`
	Feed        *FeedStatus           `json:"feed,omitempty"`
	Volume      []VolumePoint         `json:"volume"`
	Layers      []telemetry.LayerStat `json:"layers"`
	Health      *telemetry.Report     `json:"health,omitempty"`
	Cluster     []ShardStatus         `json:"cluster"`
	SSEClients  float64               `json:"sse_clients"`
}

func (c *Console) handleOverview(w http.ResponseWriter, _ *http.Request) {
	now := c.cfg.Clock()
	ov := Overview{
		GeneratedAt: now,
		TickSeconds: c.cfg.TickEvery.Seconds(),
		Volume:      c.volume(),
		Layers:      c.cfg.Registry.LayerStats(),
		Cluster:     shardStatuses(c.cfg.Registry),
		SSEClients:  c.cfg.Registry.Sum("exiot_console_sse_clients"),
	}
	if c.cfg.Source != nil {
		snap := c.cfg.Source.Snapshot()
		ov.Snapshot = &snap
	}
	if c.cfg.Feed != nil {
		if snap := c.cfg.Feed.Current(); snap != nil {
			ov.Feed = &FeedStatus{Records: snap.Len(), LastSeq: snap.LastSeq(), BuiltAt: snap.BuiltAt()}
		}
	}
	if c.cfg.Health != nil {
		rep := c.cfg.Health.Evaluate(now)
		ov.Health = &rep
	}
	writeJSON(w, http.StatusOK, ov)
}

// shardStatuses joins the per-shard cluster gauges by shard label.
func shardStatuses(reg *telemetry.Registry) []ShardStatus {
	byShard := map[string]*ShardStatus{}
	collect := func(family string, set func(st *ShardStatus, v float64)) {
		snap, ok := reg.FamilySnapshot(family)
		if !ok {
			return
		}
		for _, s := range snap.Series {
			if len(s.Labels) == 0 {
				continue
			}
			st := byShard[s.Labels[0]]
			if st == nil {
				st = &ShardStatus{Shard: s.Labels[0]}
				byShard[s.Labels[0]] = st
			}
			set(st, s.Value)
		}
	}
	collect("exiot_cluster_shard_seq", func(st *ShardStatus, v float64) { st.Seq = v })
	collect("exiot_cluster_shard_pending_frames", func(st *ShardStatus, v float64) { st.Pending = v })
	collect("exiot_cluster_shard_lag_hours", func(st *ShardStatus, v float64) { st.LagHours = v })
	out := make([]ShardStatus, 0, len(byShard))
	for _, st := range byShard {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Shard < out[j].Shard })
	return out
}

func (c *Console) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := 5
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			writeError(w, http.StatusBadRequest, "invalid n")
			return
		}
		n = parsed
	}
	stages := map[string][]trace.SlowEntry{}
	if c.cfg.Traces != nil {
		stages = c.cfg.Traces.SlowestByStage(n)
	}
	writeJSON(w, http.StatusOK, map[string]any{"n": n, "stages": stages})
}

// handleRecord is the provenance drill-down: the feed record joined
// with its retained trace when the backend can provide it.
func (c *Console) handleRecord(w http.ResponseWriter, r *http.Request) {
	ip := r.PathValue("ip")
	if _, err := packet.ParseIP(ip); err != nil {
		writeError(w, http.StatusBadRequest, "invalid ip")
		return
	}
	if c.cfg.Why != nil {
		rep, ok := c.cfg.Why.Why(ip)
		if !ok {
			writeError(w, http.StatusNotFound, "no record for "+ip)
			return
		}
		writeJSON(w, http.StatusOK, rep)
		return
	}
	if c.cfg.Source == nil {
		writeError(w, http.StatusNotImplemented, "no feed source configured")
		return
	}
	rec, ok := c.cfg.Source.RecordByIP(ip)
	if !ok {
		writeError(w, http.StatusNotFound, "no record for "+ip)
		return
	}
	writeJSON(w, http.StatusOK, api.WhyReport{Record: rec})
}

// statsFrame is one "stats" SSE event: the latest ring point plus the
// headline numbers the dashboard updates between overview polls.
type statsFrame struct {
	At      time.Time    `json:"at"`
	Point   *VolumePoint `json:"point,omitempty"`
	Healthy *bool        `json:"healthy,omitempty"`
	Feed    *FeedStatus  `json:"feed,omitempty"`
}

const sseHeartbeat = 15 * time.Second

// handleEvents streams live console updates over SSE: a "stats" event
// every tick interval, plus relayed feed "record" frames when a feed
// cache is wired. Stats frames are console-local (no Last-Event-ID
// resume); record frames reuse the feedserve sequence numbering.
func (c *Console) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	if _, err := io.WriteString(w, "retry: 2000\n\n"); err != nil {
		return
	}
	fl.Flush()

	metConsoleSSE.Add(1)
	defer metConsoleSSE.Add(-1)

	// Live-only relay: subscribe at the current snapshot head so the
	// stream starts with what happens next, not a full replay.
	var recordC <-chan feedserve.Event
	if c.cfg.Feed != nil {
		since := uint64(0)
		if snap := c.cfg.Feed.Current(); snap != nil {
			since = snap.LastSeq()
		}
		_, sub := c.cfg.Feed.Subscribe(since)
		defer c.cfg.Feed.Unsubscribe(sub)
		recordC = sub.C
	}

	tick := time.NewTicker(c.cfg.TickEvery)
	defer tick.Stop()
	beat := time.NewTicker(sseHeartbeat)
	defer beat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-recordC:
			if !ok {
				return // cache shut down or this client lagged
			}
			if _, err := w.Write(ev.Frame); err != nil {
				return
			}
			fl.Flush()
		case <-tick.C:
			if err := c.writeStatsFrame(w); err != nil {
				return
			}
			fl.Flush()
		case <-beat.C:
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// writeStatsFrame emits one "stats" SSE event with the current headline
// state.
func (c *Console) writeStatsFrame(w io.Writer) error {
	now := c.cfg.Clock()
	frame := statsFrame{At: now}
	c.mu.Lock()
	if n := len(c.ring); n > 0 {
		p := c.ring[n-1]
		frame.Point = &p
	}
	c.mu.Unlock()
	if c.cfg.Health != nil {
		healthy := c.cfg.Health.Evaluate(now).Healthy
		frame.Healthy = &healthy
	}
	if c.cfg.Feed != nil {
		if snap := c.cfg.Feed.Current(); snap != nil {
			frame.Feed = &FeedStatus{Records: snap.Len(), LastSeq: snap.LastSeq(), BuiltAt: snap.BuiltAt()}
		}
	}
	data, err := json.Marshal(frame)
	if err != nil {
		return err
	}
	if _, err := io.WriteString(w, "event: stats\ndata: "); err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	_, err = io.WriteString(w, "\n\n")
	return err
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
