package pipeline

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"exiot/internal/durable"
	"exiot/internal/feed"
	"exiot/internal/ml"
	"exiot/internal/notify"
	"exiot/internal/packet"
	"exiot/internal/store"
	"exiot/internal/telemetry"
	"exiot/internal/trainer"
	"exiot/internal/wire"
)

// This file wires the durable subsystem into the feed server. Design
// (see DESIGN.md, "Durability and recovery determinism"): the WAL logs
// the server's *inputs* — sampler events in the wire's v2 binary
// encoding (binenc.go) plus the simulated instant each became
// available — and recovery replays them
// through the unmodified HandleEvent path on top of the latest
// snapshot. Because the pipeline is deterministic given its inputs,
// replay reproduces every downstream effect: record inserts, END_FLOW
// updates, trainer-window growth, recomputed retrains, notifications.

// Layers: one call per snapshot (items: records) and per recovery
// (items: WAL events replayed).
var (
	layerSnapshot = telemetry.Default().Layer("durable.snapshot")
	layerRecover  = telemetry.Default().Layer("durable.recover")
)

// serverState is the snapshot payload: the feed server's whole mutable
// state. A snapshot may be taken whenever HandleEvent has returned;
// scanners buffered for the next probe sweep travel with it.
type serverState struct {
	// ObjectIDCounter raises the process-global ID counter on restore so
	// fresh IDs cannot collide with restored ones.
	ObjectIDCounter uint64 `json:"object_id_counter"`

	Clock       time.Time `json:"clock"`
	LastRetrain time.Time `json:"last_retrain"`
	LastAttempt time.Time `json:"last_attempt"`
	Counters    Counters  `json:"counters"`

	Historical []store.Doc[feed.Record] `json:"historical"`
	Active     []activeEntry            `json:"active"`

	// ScanPending is the scan module's buffer in arrival order (an IP
	// detected twice sits there twice), ScanOldestAdded its age anchor,
	// ScanFlows the organized flows waiting on that sweep and
	// PendingEnds the flow ends parked behind them — both wire-encoded
	// and sorted by IP.
	ScanPending     []packet.IP    `json:"scan_buffer,omitempty"`
	ScanOldestAdded time.Time      `json:"scan_oldest_added"`
	ScanFlows       []encodedEvent `json:"scan_flows,omitempty"`
	PendingEnds     []encodedEvent `json:"pending_ends,omitempty"`

	Traffic []TrafficHour `json:"traffic,omitempty"`
	Trainer trainer.State `json:"trainer"`

	Notifier *notify.State `json:"notifier,omitempty"`

	// Model is the active model in ml.SavedModel form (absent before the
	// first successful retrain).
	Model json.RawMessage `json:"model,omitempty"`
}

// activeEntry is one live-flow index entry, sorted by Key in a
// snapshot: Key is activePrefix and the source's dotted quad, Value its
// record's ObjectID.
type activeEntry struct {
	Key   string         `json:"key"`
	Value store.ObjectID `json:"value"`
}

const activePrefix = "active:"

// exportActive lists the live-flow index for a snapshot. Caller holds
// s.mu.
func (s *Server) exportActive() []activeEntry {
	out := make([]activeEntry, 0, len(s.active))
	for ip, id := range s.active {
		out = append(out, activeEntry{Key: activePrefix + ip.String(), Value: id})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// decodeActive rebuilds the live-flow index from a snapshot's entries.
// An entry without the prefix or with an unparsable address refuses the
// snapshot.
func decodeActive(entries []activeEntry) (map[packet.IP]store.ObjectID, error) {
	active := make(map[packet.IP]store.ObjectID, len(entries))
	for _, it := range entries {
		addr, ok := strings.CutPrefix(it.Key, activePrefix)
		if !ok {
			return nil, fmt.Errorf("pipeline: live-flow key %q lacks the %q prefix", it.Key, activePrefix)
		}
		ip, err := packet.ParseIP(addr)
		if err != nil {
			return nil, fmt.Errorf("pipeline: live-flow key %q: %w", it.Key, err)
		}
		active[ip] = it.Value
	}
	return active, nil
}

// encodedEvent is one wire-encoded sampler event inside a snapshot.
// Version is the payload's codec as wire.Frame.Version numbers it, and
// the only mark that tells a JSON-era event (absent, 0) from a binary one
// (wire.Version2, the only one read or written).
type encodedEvent struct {
	Kind    uint8  `json:"kind"`
	Version uint8  `json:"v,omitempty"`
	Payload []byte `json:"payload"`
}

// encodeEvents wire-encodes buffered events for a snapshot, sorted by
// IP.
func encodeEvents(events []SamplerEvent) ([]encodedEvent, error) {
	sort.Slice(events, func(i, j int) bool { return events[i].IP < events[j].IP })
	out := make([]encodedEvent, 0, len(events))
	for _, e := range events {
		kind, payload, err := AppendEncodeEvent(nil, e)
		if err != nil {
			return nil, fmt.Errorf("pipeline: encode buffered event: %w", err)
		}
		out = append(out, encodedEvent{Kind: uint8(kind), Version: wire.Version2, Payload: payload})
	}
	return out, nil
}

// decode reads one buffered event back. An event tagged with another
// codec comes from another release and refuses the snapshot, as a
// segment or snapshot header of another version does.
func (enc encodedEvent) decode(want SamplerEventKind) (SamplerEvent, error) {
	if enc.Version != wire.Version2 {
		refusal := durable.ErrOlderFormat
		if enc.Version > wire.Version2 {
			refusal = durable.ErrNewerFormat
		}
		return SamplerEvent{}, fmt.Errorf("pipeline: buffered event tagged v=%d, this binary reads only v=%d: %w",
			enc.Version, wire.Version2, refusal)
	}
	e, err := DecodeEvent(wire.Frame{Version: wire.Version2, Kind: wire.Kind(enc.Kind), Payload: enc.Payload})
	if err != nil {
		return e, fmt.Errorf("pipeline: decode buffered event: %w", err)
	}
	if e.Kind != want {
		return e, fmt.Errorf("pipeline: buffered event has frame kind %d", enc.Kind)
	}
	return e, nil
}

// ExportState serializes the server's full mutable state. Call it
// between events (HandleEvent, Tick and FlushScans are not running).
func (s *Server) ExportState() ([]byte, error) {
	st := serverState{
		ObjectIDCounter: store.ObjectIDCounterValue(),
		Historical:      s.historical.Export(),
		Traffic:         s.traffic.export(),
		Trainer:         s.trainer.ExportState(),
	}
	st.ScanPending, st.ScanOldestAdded = s.scanMod.Buffer()

	s.mu.Lock()
	st.Clock = s.clock
	st.LastRetrain = s.lastRetrain
	st.LastAttempt = s.lastAttempt
	st.Counters = s.counters
	st.Active = s.exportActive()
	flows := make([]SamplerEvent, 0, len(s.pendingBatches))
	for ip, pf := range s.pendingBatches {
		flows = append(flows, SamplerEvent{Kind: SamplerBatch, IP: ip, Batch: pf.batch})
	}
	ends := make([]SamplerEvent, 0, len(s.pendingEnds))
	for _, e := range s.pendingEnds {
		ends = append(ends, e)
	}
	model := s.lastModel
	s.mu.Unlock()

	var err error
	if st.ScanFlows, err = encodeEvents(flows); err != nil {
		return nil, err
	}
	if st.PendingEnds, err = encodeEvents(ends); err != nil {
		return nil, err
	}

	if s.notifier != nil {
		ns := s.notifier.ExportState()
		st.Notifier = &ns
	}
	if model != nil {
		saved, err := model.Saved()
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(saved)
		if err != nil {
			return nil, fmt.Errorf("pipeline: encode model: %w", err)
		}
		st.Model = raw
	}
	return json.Marshal(st)
}

// RestoreState reinstates a state exported by ExportState. Meant for a
// freshly constructed server, before any event is handled. Restored
// flows come back untraced, like WAL-replayed ones. A snapshot whose
// buffered events another release wrote, whose live-flow index names no
// address, whose model is unusable or whose alarm subscriptions name no
// prefix is refused before anything is restored.
func (s *Server) RestoreState(payload []byte) error {
	var st serverState
	if err := json.Unmarshal(payload, &st); err != nil {
		return fmt.Errorf("pipeline: decode snapshot: %w", err)
	}
	active, err := decodeActive(st.Active)
	if err != nil {
		return err
	}
	flows := make(map[packet.IP]*pendingFlow, len(st.ScanFlows))
	for _, enc := range st.ScanFlows {
		e, err := enc.decode(SamplerBatch)
		if err != nil {
			return err
		}
		flows[e.Batch.IP] = &pendingFlow{batch: e.Batch}
	}
	ends := make(map[packet.IP]SamplerEvent, len(st.PendingEnds))
	for _, enc := range st.PendingEnds {
		e, err := enc.decode(SamplerFlowEnd)
		if err != nil {
			return err
		}
		// Only a buffered flow's record can replay a parked end; older
		// snapshots also hold ends that were parked behind nothing.
		if _, ok := flows[e.IP]; ok {
			ends[e.IP] = e
		}
	}

	var model *trainer.TrainedModel
	if len(st.Model) > 0 {
		var saved ml.SavedModel
		if err := json.Unmarshal(st.Model, &saved); err != nil {
			return fmt.Errorf("pipeline: decode model: %w", err)
		}
		m, err := trainer.FromSaved(&saved)
		if err != nil {
			return err
		}
		model = m
	}
	restoreNotifier := func() {}
	if s.notifier != nil && st.Notifier != nil {
		apply, err := s.notifier.RestoreState(*st.Notifier)
		if err != nil {
			return err
		}
		restoreNotifier = apply
	}

	store.BumpObjectIDCounter(st.ObjectIDCounter)
	s.historical.Restore(st.Historical)
	s.traffic.restore(st.Traffic)
	s.trainer.RestoreState(st.Trainer)
	s.scanMod.RestoreBuffer(st.ScanPending, st.ScanOldestAdded)
	restoreNotifier()

	s.mu.Lock()
	s.clock = st.Clock
	s.lastRetrain = st.LastRetrain
	s.lastAttempt = st.LastAttempt
	s.counters = st.Counters
	s.pendingBatches = flows
	s.pendingEnds = ends
	s.active = active
	s.lastModel = model
	s.mu.Unlock()
	if model != nil {
		s.installModel(model)
	}
	metFeedActive.Set(float64(len(active)))
	return nil
}

// DurableConfig parameterizes feed-state persistence. A zero Dir
// disables the subsystem entirely. Snapshots, and the WAL segments they
// cover, are kept for the feed's 14-day historical lapse.
type DurableConfig struct {
	// Dir is the state directory holding WAL segments and snapshots.
	Dir string
	// Sync is the WAL fsync policy (durable.SyncAlways / SyncInterval /
	// SyncOff; default interval, flushing once a second).
	Sync durable.SyncPolicy
	// SegmentBytes rotates WAL segments past this size.
	SegmentBytes int64
	// SnapshotEvery takes a full-state snapshot when the simulated clock
	// has advanced this far since the last one (default 6 h).
	SnapshotEvery time.Duration
}

func (c DurableConfig) withDefaults() DurableConfig {
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 6 * time.Hour
	}
	return c
}

// RecoveryInfo summarizes what OpenDurable reconstructed.
type RecoveryInfo struct {
	// SnapshotSeq is the WAL position of the restored snapshot (0 when
	// recovery started from an empty directory).
	SnapshotSeq uint64
	// SnapshotEvents is the lifetime event count captured by the
	// snapshot.
	SnapshotEvents uint64
	// ReplayedEvents counts WAL event records re-applied on top.
	ReplayedEvents int
	// Truncated reports that a torn or corrupt WAL tail was discarded.
	Truncated bool
}

// Events returns the total sampler events already applied to the
// recovered state — the number a regenerated event stream must skip
// before deliveries resume (restart-resume in simulate mode).
func (r RecoveryInfo) Events() uint64 {
	return r.SnapshotEvents + uint64(r.ReplayedEvents)
}

// Durable binds a feed server to a state directory: every consumed
// event is appended to the WAL before delivery, snapshots are taken
// between events, and OpenDurable performs crash recovery.
type Durable struct {
	cfg        DurableConfig
	mgr        *durable.Manager
	server     *Server
	rec        RecoveryInfo
	mu         sync.Mutex
	events     uint64    // lifetime events applied (snapshot + replay + live)
	snapEvents uint64    // events at the last snapshot
	lastSnap   time.Time // simulated TakenAt of the last snapshot
	err        error     // sticky: first append/snapshot failure
	scratch    []byte    // Append's encode buffer; reused, not under mu
}

// OpenDurable attaches server to the state directory in cfg and
// performs recovery: restore the latest snapshot, replay the WAL tail
// through the normal event path (recomputing retrains), then position
// the log for appending. The server must be freshly constructed.
func OpenDurable(cfg DurableConfig, server *Server) (*Durable, error) {
	cfg = cfg.withDefaults()
	mgr, err := durable.Open(durable.Options{
		Dir:          cfg.Dir,
		Sync:         cfg.Sync,
		SegmentBytes: cfg.SegmentBytes,
	})
	if err != nil {
		return nil, err
	}
	d := &Durable{cfg: cfg, mgr: mgr, server: server}

	start := time.Now()
	meta, payload, err := mgr.LatestSnapshot()
	if err != nil {
		mgr.Close()
		return nil, err
	}
	if payload != nil {
		if err := server.RestoreState(payload); err != nil {
			mgr.Close()
			return nil, fmt.Errorf("pipeline: restore snapshot: %w", err)
		}
		d.rec.SnapshotSeq = meta.LastSeq
		d.rec.SnapshotEvents = meta.EventCount
		d.snapEvents = meta.EventCount
		d.lastSnap = meta.TakenAt
	}
	stats, err := mgr.Replay(meta.LastSeq, func(rec durable.Record) error {
		// DecodeEvent copies everything out of the payload, which is the
		// log reader's buffer and gone once this callback returns.
		e, err := DecodeEvent(wire.Frame{Version: wire.Version2, Kind: wire.Kind(rec.Kind), Payload: rec.Payload})
		if err != nil {
			return fmt.Errorf("pipeline: replay seq %d: %w", rec.Seq, err)
		}
		server.HandleEvent(e, rec.AvailableAt)
		return nil
	})
	if err != nil {
		mgr.Close()
		return nil, err
	}
	layerRecover.Done(start, stats.Records)
	d.rec.ReplayedEvents = stats.Records
	d.rec.Truncated = stats.Truncated
	d.events = meta.EventCount + uint64(stats.Records)

	if err := mgr.StartAppend(meta.LastSeq + 1); err != nil {
		mgr.Close()
		return nil, err
	}
	return d, nil
}

// Recovery reports what recovery reconstructed.
func (d *Durable) Recovery() RecoveryInfo { return d.rec }

// Err returns the first append or snapshot failure (durability is
// degraded past this point; the feed itself keeps running).
func (d *Durable) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

func (d *Durable) setErr(err error) {
	d.mu.Lock()
	if d.err == nil {
		d.err = err
	}
	d.mu.Unlock()
}

// Append logs one sampler event, in the wire's binary encoding, ahead of
// its delivery to the server. Call in delivery order, from one goroutine
// at a time.
func (d *Durable) Append(e SamplerEvent, availableAt time.Time) {
	kind, payload, err := AppendEncodeEvent(d.scratch[:0], e)
	if err == nil {
		d.scratch = payload
		_, err = d.mgr.AppendEvent(uint8(kind), availableAt, payload)
	}
	if err != nil {
		d.setErr(err)
		return
	}
	d.mu.Lock()
	d.events++
	d.mu.Unlock()
}

// MaybeSnapshot writes a full-state snapshot when due: the simulated
// clock advanced past the cadence and an event was applied since the
// last one, or force. Call it between events.
func (d *Durable) MaybeSnapshot(now time.Time, force bool) {
	d.mu.Lock()
	events := d.events
	due := force || (events != d.snapEvents &&
		(d.lastSnap.IsZero() || now.Sub(d.lastSnap) >= d.cfg.SnapshotEvery))
	d.mu.Unlock()
	if !due {
		return
	}
	defer layerSnapshot.Done(time.Now(), d.server.historical.Len())
	payload, err := d.server.ExportState()
	if err != nil {
		d.setErr(err)
		return
	}
	meta := durable.SnapshotMeta{
		LastSeq:    d.mgr.NextSeq() - 1,
		EventCount: events,
		TakenAt:    now,
	}
	if err := d.mgr.WriteSnapshot(meta, payload); err != nil {
		d.setErr(err)
		return
	}
	d.mu.Lock()
	d.snapEvents = events
	d.lastSnap = now
	d.mu.Unlock()
}

// Close syncs and releases the state directory. It takes no final
// snapshot itself (Local.Close forces one first); the synced WAL covers
// the tail either way.
func (d *Durable) Close() error {
	err := d.mgr.Close()
	if first := d.Err(); first != nil {
		return first
	}
	return err
}
