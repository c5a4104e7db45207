package pipeline

import (
	"sort"
	"strconv"
	"sync"
	"time"

	"exiot/internal/annotate"
	"exiot/internal/api"
	"exiot/internal/enrich"
	"exiot/internal/feed"
	"exiot/internal/feedserve"
	"exiot/internal/notify"
	"exiot/internal/organizer"
	"exiot/internal/packet"
	"exiot/internal/recog"
	"exiot/internal/registry"
	"exiot/internal/scanmod"
	"exiot/internal/store"
	"exiot/internal/telemetry"
	"exiot/internal/trace"
	"exiot/internal/trainer"
	"exiot/internal/zmap"
)

// Telemetry handles for the feed stage (see docs/OPERATIONS.md). The
// "feed" health check goes stale when no sampler event reaches the
// server for feedMaxAge — the signal an operator sees when the wire or
// the sampler ahead of it dies.
var (
	metFeedActive = telemetry.Default().Gauge("exiot_feed_active_records",
		"Live scan flows currently holding an active feed record.")
	metFeedLastRecord = telemetry.Default().Gauge("exiot_feed_last_record_unix",
		"Simulated-clock unix time of the most recent record insert.")
	// layerAnnotate times resolveTagged per flush; items are flows.
	layerAnnotate = telemetry.Default().Layer("annotate")
)

// feedMaxAge bounds how long the feed may go without consuming a
// sampler event before /healthz reports it stalled.
const feedMaxAge = 15 * time.Minute

// The paper's feed operating point.
const (
	// retrainEvery is the model refresh period (paper: 24 h).
	retrainEvery = 24 * time.Hour
	// historicalWindow is the historical database's lapse (paper: two
	// weeks).
	historicalWindow = 14 * 24 * time.Hour
)

// ServerConfig parameterizes the feed-server half.
type ServerConfig struct {
	ScanMod scanmod.Config
	Trainer trainer.Config
	Notify  notify.Config
	// Workers bounds the back half's fan-out at scan-batch flush: the
	// ZMap probe pool and the annotation (0 = GOMAXPROCS, 1 = on the
	// caller's goroutine). The feed is identical at any setting; 1 is
	// the serial back half the benchmark measures.
	Workers int
}

// DefaultServerConfig returns the paper's operating point.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		ScanMod: scanmod.Default(),
		Trainer: trainer.Default(),
		Notify:  notify.Config{NotifyWhois: false},
	}
}

// Counters aggregates server-side lifetime statistics.
type Counters struct {
	RecordsCreated int64
	FlowsEnded     int64
	BannersLabeled int64
	ModelRetrains  int64
	EmailsSent     int64
	Reports        int64
}

// Server is the feed-server half of the pipeline: it consumes sampler
// events and maintains the CTI feed.
type Server struct {
	cfg       ServerConfig
	scanMod   *scanmod.Module
	annotator *annotate.Annotator
	trainer   *trainer.Trainer
	notifier  *notify.Notifier

	// Two of the paper's three databases: its latest database, the
	// active threat information, is the historical one's Active records.
	historical *store.Collection[feed.Record] // two-week archive

	// traffic holds the hourly aggregation of per-second reports (the
	// report messages the paper's receiver stores in MongoDB).
	traffic *trafficStats

	mu sync.Mutex
	// pendingBatches holds organized flows awaiting active-measurement
	// results, one per source in the scan module's buffer; pendingEnds
	// holds the ends of those flows that arrived before the batch
	// flushed.
	pendingBatches map[packet.IP]*pendingFlow
	pendingEnds    map[packet.IP]SamplerEvent
	// active indexes each live flow's record by source: the paper's Redis
	// ObjectID cache, which lets a flow end update its record in O(1).
	active      map[packet.IP]store.ObjectID
	clock       time.Time
	lastRetrain time.Time
	lastAttempt time.Time
	counters    Counters
	lastModel   *trainer.TrainedModel
	// onRetrain observes successful retrains (the durability layer logs
	// a marker record). See setRetrainHook in durable.go.
	onRetrain func(m *trainer.TrainedModel, now time.Time)

	liveness *telemetry.Check
}

type pendingFlow struct {
	batch *organizer.Batch
	// trace is the flow's live trace (nil when untraced); scanEnq stamps
	// when the flow entered the scan-module buffer so the scanmod span
	// can report the batching wait.
	trace   *trace.Flow
	scanEnq time.Time
}

// NewServer assembles the feed-server half. prober answers active
// probes (the simulated Internet); reg backs enrichment; mailer delivers
// notifications (nil disables them).
func NewServer(cfg ServerConfig, prober zmap.Prober, reg *registry.Registry, mailer notify.Mailer) *Server {
	scanner := zmap.NewScanner(prober)
	scanner.Workers = cfg.Workers
	s := &Server{
		cfg:            cfg,
		scanMod:        scanmod.New(cfg.ScanMod, scanner, recog.NewDB()),
		annotator:      annotate.New(enrich.New(reg)),
		trainer:        trainer.New(cfg.Trainer),
		historical:     store.NewCollection[feed.Record](),
		pendingBatches: make(map[packet.IP]*pendingFlow),
		pendingEnds:    make(map[packet.IP]SamplerEvent),
		active:         make(map[packet.IP]store.ObjectID),
		traffic:        newTrafficStats(),
		liveness:       telemetry.DefaultHealth().Register("feed", feedMaxAge),
	}
	if mailer != nil {
		s.notifier = notify.New(cfg.Notify, mailer)
	}
	return s
}

// Notifier exposes the e-mail notifier (nil when disabled).
func (s *Server) Notifier() *notify.Notifier { return s.notifier }

// HandleEvent consumes one sampler event. availableAt is the simulated
// wall-clock instant the event reached the feed server (hour publish +
// collection + processing delays).
func (s *Server) HandleEvent(e SamplerEvent, availableAt time.Time) {
	s.liveness.Beat()
	s.mu.Lock()
	if availableAt.After(s.clock) {
		s.clock = availableAt
	}
	s.mu.Unlock()

	switch e.Kind {
	case SamplerBatch:
		s.handleBatch(e.Batch, availableAt, e.Trace)
	case SamplerFlowEnd:
		s.handleFlowEnd(e)
	case SamplerReport:
		s.traffic.add(e.Report)
		s.mu.Lock()
		s.counters.Reports++
		s.mu.Unlock()
	}
	s.Tick(availableAt)
}

func (s *Server) handleBatch(b *organizer.Batch, availableAt time.Time, flow *trace.Flow) {
	pf := &pendingFlow{batch: b, trace: flow}
	if flow != nil {
		pf.scanEnq = time.Now()
	}
	s.mu.Lock()
	s.pendingBatches[b.IP] = pf
	s.mu.Unlock()
	// The paper probes scanners immediately upon detection; the scan
	// module batches up to BatchSize/BatchWait before the sweep runs.
	if tagged := s.scanMod.Enqueue(b.IP, availableAt); tagged != nil {
		s.resolveTagged(tagged, availableAt)
	}
}

// resolveTagged joins active-measurement results with their organized
// flows and emits CTI records. Annotation (feature extraction, forest
// inference, enrichment) fans out across cfg.Workers goroutines — every
// per-record computation is pure and the model is fixed for the whole
// flush — while the stateful tail (trainer window, store inserts,
// counters, notifications) runs serially in batch order, so the emitted
// feed is identical to the fully serial path.
func (s *Server) resolveTagged(tagged []scanmod.Tagged, now time.Time) {
	start := time.Now()

	// Join scan results with their organized flows, preserving order.
	s.mu.Lock()
	flows := make([]*pendingFlow, len(tagged))
	for i := range tagged {
		flows[i] = s.pendingBatches[tagged[i].IP]
		delete(s.pendingBatches, tagged[i].IP)
	}
	s.mu.Unlock()

	// Traced flows get their scan-module spans here: the batching wait
	// (enqueue → flush start) and the zmap probe sweep window itself.
	fw := s.scanMod.LastFlush()
	portsPerHost := s.scanMod.PortsPerHost()

	jobs := make([]annotate.Job, 0, len(tagged))
	for i := range tagged {
		pf := flows[i]
		if pf == nil {
			continue // flow was dropped by the organizer
		}
		if pf.trace != nil {
			pf.trace.SpanAt("scanmod", pf.scanEnq, fw.Start, fw.Start,
				trace.Int("batch_hosts", len(tagged)))
			pf.trace.SpanAt("zmap", fw.Start, fw.Start, fw.End,
				trace.Int("ports_probed", portsPerHost),
				trace.Int("open_ports", len(tagged[i].Result.OpenPorts)),
				trace.Int("banners", len(tagged[i].Result.Banners)))
		}
		jobs = append(jobs, annotate.Job{
			Batch:       pf.batch,
			Scan:        &tagged[i].Result,
			Match:       tagged[i].Match,
			PortsProbed: portsPerHost,
			Trace:       pf.trace,
		})
	}
	recs, errs := s.annotator.AnnotateBatch(jobs, s.cfg.Workers)
	for k := range jobs {
		if errs[k] != nil {
			// Malformed flow; nothing to record, and nothing for its
			// parked end to update. Close out its trace so the failure is
			// still visible in the store.
			if f := jobs[k].Trace; f != nil {
				f.Span("server", time.Now(), time.Now(), trace.Str("outcome", "rejected"))
				trace.Default().Finish(f)
			}
			if end, ok := s.takeParkedEnd(jobs[k].Batch.IP); ok {
				s.finishEndTrace(end, "no_record")
			}
			continue
		}
		s.finishRecord(jobs[k].Batch, recs[k], jobs[k].Raw, jobs[k].Match, now, jobs[k].Trace)
	}
	layerAnnotate.Done(start, len(jobs))
}

// finishRecord applies one annotated record's stateful tail. Must be
// called in batch order from a single goroutine.
func (s *Server) finishRecord(b *organizer.Batch, rec feed.Record, raw []float64, match *recog.Match, appearedAt time.Time, flow *trace.Flow) {
	var emitStart time.Time
	if flow != nil {
		emitStart = time.Now()
	}
	rec.AppearedAt = appearedAt

	// Banner-labeled flows feed the update-classifier window.
	if match != nil {
		label := 0
		if match.IoT {
			label = 1
		}
		s.trainer.Add(trainer.Example{
			Time:  appearedAt,
			IP:    rec.IP,
			Raw:   raw,
			Label: label,
		})
		s.mu.Lock()
		s.counters.BannersLabeled++
		s.mu.Unlock()
	}

	histID := s.historical.Insert(appearedAt, rec)
	s.mu.Lock()
	s.counters.RecordsCreated++
	s.active[b.IP] = histID
	live := len(s.active)
	s.mu.Unlock()
	metFeedLastRecord.Set(float64(appearedAt.Unix()))
	metFeedActive.Set(float64(live))

	if s.notifier != nil {
		if sent := s.notifier.Process(&rec, appearedAt); sent > 0 {
			s.mu.Lock()
			s.counters.EmailsSent += int64(sent)
			s.mu.Unlock()
		}
	}

	if flow != nil {
		flow.Span("server", emitStart, emitStart,
			trace.Str("label", rec.Label),
			trace.Str("label_source", rec.LabelSource))
		trace.Default().Finish(flow)
	}

	// A flow end may have raced ahead of the scan batch; apply it now.
	if end, ok := s.takeParkedEnd(b.IP); ok {
		s.handleFlowEnd(end)
	}
}

// takeParkedEnd removes and returns the flow end parked behind ip's
// buffered flow, if any.
func (s *Server) takeParkedEnd(ip packet.IP) (SamplerEvent, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	end, ok := s.pendingEnds[ip]
	delete(s.pendingEnds, ip)
	return end, ok
}

func (s *Server) handleFlowEnd(e SamplerEvent) {
	s.mu.Lock()
	histID, ok := s.active[e.IP]
	if !ok {
		// The record may still be waiting on the scan batch; park the
		// end until finishRecord replays it (it keeps its live trace and
		// finishes then). With no flow buffered — the organizer dropped
		// the sample, or the end already came — nothing would replay it.
		_, parked := s.pendingBatches[e.IP]
		if parked {
			s.pendingEnds[e.IP] = e
		}
		s.mu.Unlock()
		if !parked {
			s.finishEndTrace(e, "no_record")
		}
		return
	}
	s.mu.Unlock()
	ended := e.LastSeen
	update := func(rec *feed.Record) {
		rec.Active = false
		rec.EndedAt = &ended
		if e.LastSeen.After(rec.LastSeen) {
			rec.LastSeen = e.LastSeen
		}
	}
	// The live index is the paper's Redis cache: an O(1) update by
	// ObjectID instead of a scan for the latest record of an IP.
	s.historical.Update(histID, update)
	s.mu.Lock()
	s.counters.FlowsEnded++
	delete(s.active, e.IP)
	live := len(s.active)
	s.mu.Unlock()
	metFeedActive.Set(float64(live))
	s.finishEndTrace(e, "applied")
}

// finishEndTrace closes out a flow-end event's trace (no-op when
// untraced) with the update's outcome.
func (s *Server) finishEndTrace(e SamplerEvent, outcome string) {
	if e.Trace == nil {
		return
	}
	now := time.Now()
	e.Trace.Span("server", now, now, trace.Str("outcome", outcome))
	trace.Default().Finish(e.Trace)
}

// Tick runs time-driven housekeeping: the daily retrain, historical
// expiry, the retirement of traffic hours past the same lapse and of
// notification dedup keys past the renotify window. Call with the
// advancing simulated clock. HandleEvent calls it for every event, so
// every check is O(1) until something is due: a retrain, an hour's
// records or traffic lapsing, or a dedup sweep. The scan batch's age
// flush is not here: the scan module checks it when the next scanner
// arrives.
func (s *Server) Tick(now time.Time) {
	s.maybeRetrain(now)
	cutoff := now.Add(-historicalWindow)
	s.historical.Expire(cutoff)
	s.traffic.retire(cutoff)
	if s.notifier != nil {
		s.notifier.Retire(now)
	}
}

// FlushScans forces the scan module's pending batch through (end of a
// simulation run or graceful shutdown).
func (s *Server) FlushScans(now time.Time) {
	if tagged := s.scanMod.Flush(); tagged != nil {
		s.resolveTagged(tagged, now)
	}
}

// installModel publishes a trained model to the annotate module. The
// pointer forest is flattened into a contiguous inference arena first:
// scores are bit-identical, but the hot path walks one cache-friendly
// node slice and gains the batch-prediction entry point.
func (s *Server) installModel(m *trainer.TrainedModel) {
	s.annotator.SetModel(&annotate.Model{Classifier: m.Forest.Flatten(), Normalizer: m.Normalizer})
}

func (s *Server) maybeRetrain(now time.Time) {
	s.mu.Lock()
	due := s.lastRetrain.IsZero() || now.Sub(s.lastRetrain) >= retrainEvery
	// During bootstrap a retrain may fail for lack of labeled data; the
	// 24 h slot is only consumed by a successful train, with a short
	// cooldown between attempts so ticks stay cheap.
	attempt := due && (s.lastAttempt.IsZero() || now.Sub(s.lastAttempt) >= 30*time.Minute)
	if attempt {
		s.lastAttempt = now
	}
	s.mu.Unlock()
	if !attempt {
		return
	}
	m, err := s.trainer.Retrain(now)
	if err != nil {
		return // not enough labeled data yet (bootstrap)
	}
	s.installModel(m)
	s.mu.Lock()
	s.lastModel = m
	s.lastRetrain = now
	s.counters.ModelRetrains++
	hook := s.onRetrain
	s.mu.Unlock()
	if hook != nil {
		hook(m, now)
	}
}

// RestoreModel loads the most recently archived model from dir and
// installs it, letting a restarted feed server classify immediately
// instead of re-bootstrapping. A missing archive is not an error.
func (s *Server) RestoreModel(dir string) error {
	m, err := trainer.LoadLatest(dir)
	if err != nil {
		return err
	}
	if m == nil {
		return nil
	}
	s.installModel(m)
	s.mu.Lock()
	s.lastModel = m
	s.lastRetrain = m.TrainedAt
	s.mu.Unlock()
	return nil
}

// LastModel returns the most recent trained model (nil before first
// retrain).
func (s *Server) LastModel() *trainer.TrainedModel {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastModel
}

// Trainer exposes the update-classifier module (experiments).
func (s *Server) Trainer() *trainer.Trainer { return s.trainer }

// Counters returns lifetime statistics.
func (s *Server) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

// --- api.Source implementation ---

var _ api.Source = (*Server)(nil)

// Records queries the historical database.
func (s *Server) Records(q api.Query) []feed.Record {
	out := s.historical.Find(func(r feed.Record) bool { return q.Matches(&r) })
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[len(out)-q.Limit:] // most recent entries win
	}
	return out
}

// RecordByIP returns the most recent record for ip, preferring the live
// one. ip must match a record's address as written: a non-canonical
// spelling of a source ("010.0.0.1") finds none of its records.
func (s *Server) RecordByIP(ip string) (feed.Record, bool) {
	if addr, err := packet.ParseIP(ip); err == nil {
		s.mu.Lock()
		id, live := s.active[addr]
		s.mu.Unlock()
		if live {
			if rec, ok := s.historical.Get(id); ok && rec.IP == ip {
				return rec, true
			}
		}
	}
	matches := s.historical.Find(func(r feed.Record) bool { return r.IP == ip })
	if len(matches) == 0 {
		return feed.Record{}, false
	}
	return matches[len(matches)-1], true
}

var _ api.WhySource = (*Server)(nil)

// Why joins a record with its retained trace detail (api.WhySource):
// the record's provenance carries the deterministic trace ID, and the
// trace store may still hold the per-stage timing lineage behind it.
func (s *Server) Why(ip string) (api.WhyReport, bool) {
	rec, ok := s.RecordByIP(ip)
	if !ok {
		return api.WhyReport{}, false
	}
	rep := api.WhyReport{Record: rec}
	if rec.Provenance != nil && rec.Provenance.TraceID != "" {
		if id, err := trace.ParseID(rec.Provenance.TraceID); err == nil {
			if d, ok := trace.Default().Store().Get(id); ok {
				rep.Trace = d
			}
		}
	}
	return rep, true
}

// Snapshot aggregates the front-end's high-level view.
func (s *Server) Snapshot() api.Snapshot {
	s.mu.Lock()
	now := s.clock
	s.mu.Unlock()
	snap := api.Snapshot{
		GeneratedAt:  now,
		TopCountries: map[string]int{},
		TopPorts:     map[string]int{},
		TopVendors:   map[string]int{},
	}
	var earliest, latest time.Time
	for _, rec := range s.historical.Find(nil) {
		snap.TotalRecords++
		if rec.Active {
			snap.ActiveRecords++
		}
		if rec.Benign {
			snap.BenignRecords++
		}
		if rec.IsIoT() {
			snap.IoTRecords++
			snap.TopCountries[rec.CountryCode]++
			if rec.Vendor != "" {
				snap.TopVendors[rec.Vendor]++
			}
			for _, port := range rec.TopPorts(3) {
				snap.TopPorts[strconv.Itoa(int(port))]++
			}
		}
		if earliest.IsZero() || rec.AppearedAt.Before(earliest) {
			earliest = rec.AppearedAt
		}
		if rec.AppearedAt.After(latest) {
			latest = rec.AppearedAt
		}
	}
	trimTop(snap.TopCountries, 10)
	trimTop(snap.TopPorts, 10)
	trimTop(snap.TopVendors, 10)
	if span := latest.Sub(earliest).Hours(); span > 0 {
		snap.RecordsPerHour = float64(snap.TotalRecords) / span
	}
	return snap
}

// trimTop keeps the n largest entries of a counter map.
func trimTop(m map[string]int, n int) {
	if len(m) <= n {
		return
	}
	type kv struct {
		k string
		v int
	}
	items := make([]kv, 0, len(m))
	for k, v := range m {
		items = append(items, kv{k, v})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].v != items[j].v {
			return items[i].v > items[j].v
		}
		return items[i].k < items[j].k
	})
	for _, it := range items[n:] {
		delete(m, it.k)
	}
}

// Traffic returns the hourly telescope traffic statistics of the
// historical window, each hour's port tally trimmed to its top 10
// entries.
func (s *Server) Traffic() []TrafficHour {
	return s.traffic.snapshot(10)
}

// Historical exposes the two-week archive (experiments and dashboards).
func (s *Server) Historical() *store.Collection[feed.Record] { return s.historical }

// NewFeedCache builds the snapshot-backed feed distribution cache over
// the server's historical database. The cache hooks the collection's
// mutation stream, so every record the pipeline writes marks it dirty;
// call Start on the result to enable background rebuilds and hand it to
// api.Server.SetFeedCache to switch the read path over.
func (s *Server) NewFeedCache(cfg feedserve.Config) *feedserve.Cache {
	return feedserve.New(s.historical, cfg)
}
