// The equivalence proofs' one runner. A world is a seeded simulated
// telescope; a row is one way its hours reach a pipeline.Server — the
// shipped pipeline.Local, N pipeline.Shippers over real TCP into
// BackHalf.Receive, a replay of the hours captured to disk, a durable
// state directory killed and recovered, tracing, a live console — and
// every row must match its world's baseline, a plain pipeline.Local run,
// in every field of one fingerprint. The axes of a row compose, so one
// row can be a traced, durable three-shard cluster.
package exiot_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"exiot/internal/api"
	"exiot/internal/campaign"
	"exiot/internal/console"
	"exiot/internal/durable"
	"exiot/internal/experiments"
	"exiot/internal/feed"
	"exiot/internal/feedserve"
	"exiot/internal/notify"
	"exiot/internal/packet"
	"exiot/internal/pcapio"
	"exiot/internal/pipeline"
	"exiot/internal/replay"
	"exiot/internal/simnet"
	"exiot/internal/trace"
	"exiot/internal/trw"
	"exiot/internal/wire"
)

// world is a spec, so baselines can be memoized by it. Its population is
// "small" (the 3-hour worlds), "day" (a two-day population) or "scale"
// (experiments.NewEnv at the evaluation's configuration).
type world struct {
	seed  int64
	hours int
	pop   string
}

var (
	clusterWorld = world{4242, 3, "small"}
	replayWorld  = world{7331, 3, "small"}
	dayWorld     = world{99, 24, "day"} // tracing, why-lineage, snapshot export
	durableWorld = world{99, 48, "day"}
	consoleWorld = world{4242, 24, "day"}
	scaleWorld   = world{77, 48, "scale"}
)

func (w world) build() *simnet.World {
	cfg := simnet.DefaultConfig(w.seed)
	if w.pop == "small" {
		cfg.NumInfected, cfg.NumNonIoT, cfg.NumMisconfig, cfg.NumBackscat = 120, 25, 12, 5
	} else {
		cfg.NumInfected, cfg.NumNonIoT, cfg.NumResearch, cfg.NumMisconfig, cfg.NumBackscat = 150, 30, 3, 20, 6
		cfg.Days = 2
	}
	cfg.MaxPacketsPerHostHour = 600
	return simnet.NewWorld(cfg)
}

func (w world) scale() experiments.Scale {
	s := experiments.QuickScale(w.seed)
	s.Infected, s.NonIoT, s.Research, s.Misconfig, s.Backscat = 150, 30, 3, 20, 6
	s.Days = w.hours / 24
	s.MaxPacketsPerHostHour = 600
	return s
}

// row is one variant: how a world's hours reach the feed server.
type row struct {
	name    string
	procs   int    // GOMAXPROCS for the row (0: leave it), which sizes every fan-out
	traced  bool   // every event traced
	shards  int    // 0: pipeline.Local; n: n Shippers over TCP into BackHalf.Receive(n)
	capture string // "": hours from memory; "dir": replay of hourly captures; "file": of one capture
	durable bool   // a state directory, reopened by a fresh BackHalf after end of input
	crash   int    // durable Local: hard-stop at this hour, tear the WAL tail, recover and re-drive
	bitflip bool   // the crash flips a byte of the last WAL record instead
	console bool   // Local with a live console, feed cache and campaign tracker, polled throughout
}

// outcome is what a row leaves behind for its test's own checks.
type outcome struct {
	fp       fingerprint
	reopened *fingerprint // durable rows: a fresh BackHalf over the closed state directory
	server   *pipeline.Server
	env      *experiments.Env // scale worlds
	console  http.Handler
	cache    *feedserve.Cache // the console's live feed cache
	polls    int              // requests the console's polling client completed
}

// baselines holds one plain pipeline.Local run per world, shared by every
// row on it. Rows never run in parallel (the tracer, the health registry
// and GOMAXPROCS are process globals), so the map needs no lock.
var baselines = map[world]*outcome{}

func baseline(t *testing.T, w world) *outcome {
	t.Helper()
	if testing.Short() && w.pop != "small" {
		t.Skip("day-long world: -short runs the 3-hour rows")
	}
	if b, ok := baselines[w]; ok {
		return b
	}
	b := run(t, w, row{name: "baseline", procs: 1})
	if len(b.fp.historical) == 0 {
		t.Fatalf("the baseline of %+v produced no feed records: every proof on it would be vacuous", w)
	}
	b.server = nil // only the fingerprint (and env) are compared
	baselines[w] = b
	return b
}

// prove runs r over w and requires its fingerprint, and the reopened
// state's, to match w's baseline.
func prove(t *testing.T, w world, r row) *outcome {
	t.Helper()
	want := baseline(t, w)
	out := run(t, w, r)
	if d := out.fp.diff(want.fp); d != "" {
		t.Fatalf("%s: %s", r.name, d)
	}
	if out.reopened != nil {
		if d := out.reopened.diff(want.fp); d != "" {
			t.Fatalf("%s, reopened: %s", r.name, d)
		}
	}
	return out
}

func proveRows(t *testing.T, w world, rows ...row) {
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) { prove(t, w, r) })
	}
}

func run(t *testing.T, w world, r row) *outcome {
	t.Helper()
	if r.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(r.procs))
	}
	if r.traced {
		trace.Default().SetSampleEvery(1)
		defer trace.Default().SetSampleEvery(0)
	}
	if w.pop == "scale" {
		env, err := experiments.NewEnv(w.scale())
		must(t, err)
		fp := fingerprintOf(t, env.Sys.Feed(), env.Sys.Pipeline().Sampler())
		return &outcome{fp: fp, server: env.Sys.Feed(), env: env}
	}
	out := &outcome{}
	cfg := pipeline.DefaultLocalConfig()
	if r.durable { // no fsync, which equivalence does not need; small segments force rotation
		cfg.Durable = pipeline.DurableConfig{Dir: t.TempDir(), Sync: durable.SyncOff, SegmentBytes: 256 << 10}
	}
	src := newSource(t, w, r)
	if r.shards > 0 {
		runShards(t, w, r, cfg, src, out)
	} else {
		runLocal(t, w, r, cfg, src, out)
	}
	if r.durable {
		if problems, err := durable.Verify(cfg.Durable.Dir); err != nil || len(problems) > 0 {
			t.Fatalf("closed state dir: %v %v", problems, err)
		}
		sw := w.build()
		back, err := pipeline.NewBackHalf(cfg, sw, sw.Registry(), &notify.MemoryMailer{})
		must(t, err)
		must(t, back.Close())
		fp := fingerprintOf(t, back.Server(), nil)
		out.reopened = &fp
	}
	return out
}

var errHardStop = errors.New("hard stop")

// runLocal drives the hours through one pipeline.Local. A crash row first
// runs a process that stops dead at the crash hour — no Finish, no Close,
// no final snapshot — and mangles its WAL tail; the Local that follows
// recovers and re-drives every hour, skipping what it recovered.
func runLocal(t *testing.T, w world, r row, cfg pipeline.LocalConfig, src source, out *outcome) {
	t.Helper()
	if r.crash > 0 {
		cw := w.build()
		crashed, err := pipeline.NewDurableLocal(cfg, cw, cw.Registry(), &notify.MemoryMailer{})
		must(t, err)
		stop := cw.Start().Add(time.Duration(r.crash) * time.Hour)
		if _, err := src.drive(t, cw, func(pkts []packet.Packet, hour time.Time) error {
			if !hour.Before(stop) {
				return errHardStop
			}
			crashed.ProcessHour(pkts, hour)
			return nil
		}); !errors.Is(err, errHardStop) {
			t.Fatalf("the run never reached its crash hour %d: %v", r.crash, err)
		}
		damageWALTail(t, cfg.Durable.Dir, r.bitflip)
		if problems, err := durable.Verify(cfg.Durable.Dir); err != nil || len(problems) == 0 {
			t.Fatalf("Verify did not flag the damaged WAL tail (%v)", err)
		}
	}
	sw := w.build()
	l, err := pipeline.NewDurableLocal(cfg, sw, sw.Registry(), &notify.MemoryMailer{})
	must(t, err)
	if r.crash > 0 {
		info := l.Durable().Recovery()
		if info.SnapshotSeq == 0 || uint64(info.ReplayedEvents) >= info.Events() {
			t.Fatalf("recovery did not restore a snapshot and replay only the tail: %+v", info)
		}
		t.Logf("recovered from snapshot through seq %d + %d WAL events", info.SnapshotSeq, info.ReplayedEvents)
	}
	hourDone, done := func(time.Time) {}, func() {}
	if r.console {
		hourDone, done = attachConsole(t, l.Server(), out)
	}
	end, err := src.drive(t, sw, func(pkts []packet.Packet, hour time.Time) error {
		l.ProcessHour(pkts, hour)
		hourDone(hour)
		return nil
	})
	must(t, err)
	l.Finish(end)
	done()
	must(t, l.Close())
	out.server, out.fp = l.Server(), fingerprintOf(t, l.Server(), l.Sampler())
}

// flakyLink is a node's wire connection that drops on a seeded coin flip
// before and after every barrier: the next flush redials and replays the
// whole batch, which the merge must dedup by sequence.
type flakyLink struct {
	*wire.Sender
	rng *rand.Rand
}

func (l flakyLink) Barrier(epoch int64, final bool) error {
	if l.rng.Intn(2) == 0 {
		l.ResetConn()
	}
	err := l.Sender.Barrier(epoch, final)
	if l.rng.Intn(2) == 0 {
		l.ResetConn()
	}
	return err
}

// runShards runs the split shape: r.shards concurrent Shippers
// (flowsampler -shard i/n), each over a TCP connection that drops at
// seeded points, into the BackHalf behind its merge (exiotd -shards n).
func runShards(t *testing.T, w world, r row, cfg pipeline.LocalConfig, src source, out *outcome) {
	t.Helper()
	sw := w.build()
	back, err := pipeline.NewBackHalf(cfg, sw, sw.Registry(), &notify.MemoryMailer{})
	must(t, err)
	agg := back.Receive(r.shards)
	recv, err := wire.NewReceiver("127.0.0.1:0", func(f wire.Frame) {
		if err := agg.Ingest(f); err != nil {
			t.Errorf("cluster ingest: %v", err)
		}
	})
	must(t, err)
	defer recv.Close()
	var wg sync.WaitGroup
	for node := range r.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sender := wire.NewSenderV2(recv.Addr(), node, r.shards)
			defer sender.Close()
			link := flakyLink{sender, rand.New(rand.NewSource(99 + int64(node)))}
			ship := pipeline.NewShipper(trw.Default(), node, r.shards, link)
			end, err := src.drive(t, sw, func(pkts []packet.Packet, hour time.Time) error {
				return ship.ProcessHour(pkts, hour)
			})
			if err == nil {
				err = ship.Finish(end)
			}
			if err != nil {
				t.Errorf("node %d: %v", node, err)
			}
		}()
	}
	wg.Wait()
	// A barrier returns once acked, after the receiver ran the merge it
	// completed: every final barrier is back, so every hour has merged.
	if n := agg.PendingHours(); n != 0 {
		t.Fatalf("cluster merge incomplete: %d hours still pending", n)
	}
	must(t, back.Close())
	out.server, out.fp = back.Server(), fingerprintOf(t, back.Server(), nil)
}

// source is where a row's packets come from: the world's generator, or
// a replay at warp=0 of its hours written as hourly captures ("dir") or
// as one capture spanning them all ("file", whose hour boundaries come
// from packet timestamps alone).
type source struct {
	hours  int
	pergen [][]packet.Packet // generated up front for concurrent shards
	path   string            // the capture to replay
}

type sourceKey struct {
	w       world
	capture string
}

// sources memoizes the pre-generated hours and the captures of each
// world for all its rows: nothing downstream writes to either.
var sources = map[sourceKey]source{}

// captureRoot holds the captures for the life of the test binary.
var captureRoot string

func TestMain(m *testing.M) {
	captureRoot, _ = os.MkdirTemp("", "exiot-proof-") // "" falls back to the default, per capture
	code := m.Run()
	os.RemoveAll(captureRoot)
	os.Exit(code)
}

func newSource(t *testing.T, w world, r row) source {
	t.Helper()
	if r.shards == 0 && r.capture == "" {
		return source{hours: w.hours}
	}
	key := sourceKey{w, r.capture}
	if src, ok := sources[key]; ok {
		return src
	}
	sw := w.build()
	src := source{hours: w.hours, pergen: make([][]packet.Packet, w.hours)}
	for h := range src.pergen {
		src.pergen[h] = sw.GenerateHour(sw.Start().Add(time.Duration(h) * time.Hour))
	}
	if r.capture != "" {
		dir, err := os.MkdirTemp(captureRoot, r.capture)
		must(t, err)
		if r.capture == "dir" {
			for h := range src.pergen {
				writeCapture(t, dir, sw.Start().Add(time.Duration(h)*time.Hour), src.pergen[h:h+1])
			}
		} else {
			writeCapture(t, dir, sw.Start(), src.pergen)
		}
		src.pergen, src.path = nil, dir
		if r.capture == "file" {
			src.path = filepath.Join(dir, pcapio.HourFileName(sw.Start()))
		}
	}
	sources[key] = src
	return src
}

// writeCapture writes hours into the capture file named after hour.
func writeCapture(t *testing.T, dir string, hour time.Time, hours [][]packet.Packet) {
	hw, err := pcapio.CreateHour(dir, hour)
	must(t, err)
	for _, pkts := range hours {
		for i := range pkts {
			must(t, hw.WritePacket(&pkts[i]))
		}
	}
	must(t, hw.Close())
}

// drive emits the hours in order and returns the end of input.
func (s source) drive(t *testing.T, sw *simnet.World, emit func([]packet.Packet, time.Time) error) (time.Time, error) {
	if s.path != "" {
		rep := replay.New(replay.Config{
			// warp=0: no pacing, and the engine must never consult a clock.
			Now:   func() time.Time { t.Error("replay consulted the wall clock at warp=0"); return time.Time{} },
			Sleep: func(time.Duration) { t.Error("replay slept at warp=0") },
			Emit:  emit,
		})
		err := rep.Replay(s.path)
		return rep.End(), err
	}
	for h := range s.hours {
		hour := sw.Start().Add(time.Duration(h) * time.Hour)
		var pkts []packet.Packet
		if s.pergen != nil {
			pkts = s.pergen[h]
		} else {
			pkts = sw.GenerateHour(hour)
		}
		if err := emit(pkts, hour); err != nil {
			return time.Time{}, err
		}
	}
	return sw.Start().Add(time.Duration(s.hours) * time.Hour), nil
}

// damageWALTail mutilates the newest WAL segment the way a crash mid-
// write would: it truncates inside the last record, or corrupts a byte of
// its payload. Recovery must cut back to the last intact record and
// resume from there.
func damageWALTail(t *testing.T, dir string, bitflip bool) {
	t.Helper()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) == 0 {
		t.Fatal("no WAL segments to damage")
	}
	last := segs[len(segs)-1]
	offsets, validLen, err := durable.RecordOffsets(last)
	if err != nil || len(offsets) == 0 {
		t.Fatalf("last segment %s holds %d records (%v)", last, len(offsets), err)
	}
	start := offsets[len(offsets)-1]
	mid := start + max((validLen-start)/2, 1)
	b, err := os.ReadFile(last)
	must(t, err)
	if bitflip {
		b[mid] ^= 0x40
	} else {
		b = b[:mid]
	}
	must(t, os.WriteFile(last, b, 0o644))
}

// attachConsole puts the operator surface on srv as exiotd does — a feed
// cache rebuilt every hour, the campaign tracker on its rebuild hook, a
// stats tick per hour — with a client polling every console page over
// HTTP until done.
func attachConsole(t *testing.T, srv *pipeline.Server, out *outcome) (hourDone func(time.Time), done func()) {
	cache := srv.NewFeedCache(feedserve.Config{})
	t.Cleanup(cache.Close)
	tracker := campaign.NewTracker(campaign.TrackerConfig{})
	cache.OnRebuild(func(s *feedserve.Snapshot) { tracker.Update(s.Records(), s.BuiltAt()) })
	con := console.New(console.Config{Source: srv, Why: srv, Tracker: tracker, Feed: cache})
	mux := http.NewServeMux()
	con.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	out.console, out.cache = mux, cache

	paths := []string{"/console/", "/console/api/overview", "/console/api/traces",
		"/console/api/campaigns", "/console/api/record/203.0.113.1"}
	stop, polls := make(chan struct{}), make(chan int, 1)
	go func() {
		n := 0
		defer func() { polls <- n }()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + paths[i%len(paths)])
			if err != nil {
				return // the test failed and its cleanup closed the server
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			n++
			time.Sleep(2 * time.Millisecond)
		}
	}()
	hourDone = func(hour time.Time) {
		cache.Rebuild()
		con.Tick(hour)
	}
	done = func() {
		cache.Rebuild()
		close(stop)
		out.polls = <-polls
	}
	return hourDone, done
}

// fingerprint is everything a row must reproduce: the latest view (the
// archive's active records), the two-week archive, lifetime counters,
// hourly traffic, the store-walked NDJSON export as the REST API streams
// it, the feed cache's export at a fixed clock, and the detector's
// statistics when one sampler ran in process.
type fingerprint struct {
	latest, historical []feed.Record
	counters           pipeline.Counters
	traffic            []pipeline.TrafficHour
	export, cached     string
	stats              *trw.Stats // nil without one in-process sampler
}

var cacheClock = time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)

func fingerprintOf(t *testing.T, s *pipeline.Server, sampler *pipeline.Sampler) fingerprint {
	t.Helper()
	fp := fingerprint{historical: s.Records(api.Query{}), counters: s.Counters(), traffic: s.Traffic()}
	for _, r := range fp.historical {
		if r.Active {
			fp.latest = append(fp.latest, r)
		}
	}
	rec := get(feedAPI(s, nil), "/api/v1/export")
	if rec.Code != http.StatusOK {
		t.Fatalf("export status = %d", rec.Code)
	}
	fp.export = rec.Body.String()
	cache := s.NewFeedCache(feedserve.Config{Clock: func() time.Time { return cacheClock }})
	defer cache.Close()
	fp.cached = string(cache.Current().ExportNDJSON())
	if d := firstDiff("line", lines(fp.cached), lines(fp.export)); d != "" {
		t.Errorf("the feed cache's export is not the store walk's: %s", d)
	}
	if sampler != nil {
		st := sampler.DetectorStats()
		fp.stats = &st
	}
	return fp
}

// diff names the first field in which got differs from want ("" when
// none), and for a list the first differing element or NDJSON line.
func (got fingerprint) diff(want fingerprint) string {
	for _, d := range []string{
		firstDiff("latest record", got.latest, want.latest),
		firstDiff("historical record", got.historical, want.historical),
		firstDiff("counters", []pipeline.Counters{got.counters}, []pipeline.Counters{want.counters}),
		firstDiff("traffic hour", got.traffic, want.traffic),
		firstDiff("export line", lines(got.export), lines(want.export)),
		firstDiff("feed-cache export line", lines(got.cached), lines(want.cached)),
	} {
		if d != "" {
			return d
		}
	}
	if got.stats != nil && want.stats != nil && *got.stats != *want.stats {
		return fmt.Sprintf("detector stats differ:\n got:  %+v\n want: %+v", *got.stats, *want.stats)
	}
	return ""
}

func firstDiff[T any](field string, got, want []T) string {
	at := func(s []T, i int) any {
		if i < len(s) {
			return s[i]
		}
		return "<missing>"
	}
	for i := range max(len(got), len(want)) {
		if i >= len(got) || i >= len(want) || !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Sprintf("%s %d of %d (want %d) differs:\n got:  %+v\n want: %+v",
				field, i, len(got), len(want), at(got, i), at(want, i))
		}
	}
	return ""
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func lines(ndjson string) []string { return strings.Split(ndjson, "\n") }

// feedAPI is the REST API over s, serving from cache when one is given.
func feedAPI(s *pipeline.Server, cache *feedserve.Cache) http.Handler {
	a := api.NewServer(s, s.Notifier())
	a.AddKey("proof-key", "proof")
	if cache != nil {
		a.SetFeedCache(cache)
	}
	return a
}

// get serves one authenticated GET in process; header lists name, value
// pairs.
func get(h http.Handler, path string, header ...string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set("X-API-Key", "proof-key")
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// decodeJSON decodes a 200 response's body into v.
func decodeJSON(t *testing.T, rec *httptest.ResponseRecorder, v any) {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	must(t, json.Unmarshal(rec.Body.Bytes(), v))
}

// TestClusterFeedEquivalence is the distributed telescope's proof: N
// nodes, each shipping one hash partition of the sources over real TCP
// with forced reconnects, produce pipeline.Local's feed once the shipped
// receiver merges them. One shard is the split deployment (flowsampler →
// exiotd); three is a cluster.
func TestClusterFeedEquivalence(t *testing.T) {
	proveRows(t, clusterWorld, row{name: "1 shard", shards: 1}, row{name: "3 shards", shards: 3})
}

// TestReplayFeedEquivalence: hours written as hourly pcap.gz captures and
// replayed at warp=0 produce the feed of live ingestion, so nothing
// depends on whether packets came from the wire or from disk.
func TestReplayFeedEquivalence(t *testing.T) {
	prove(t, replayWorld, row{name: "replay dir", capture: "dir"})
}

// TestReplaySingleFileEquivalence repeats the proof for the one-file
// case: every hour in a single capture, with hour boundaries recovered
// from packet timestamps alone.
func TestReplaySingleFileEquivalence(t *testing.T) {
	prove(t, replayWorld, row{name: "replay file", capture: "file"})
}

// TestKillRecoverEquivalence: a two-day run hard-stopped partway, its WAL
// tail torn or bit-flipped, recovers in a fresh process from a snapshot
// plus the WAL tail (durable.Verify flags the damage, then passes once the
// directory is closed) and finishes with the uninterrupted run's feed.
func TestKillRecoverEquivalence(t *testing.T) {
	proveRows(t, durableWorld,
		row{name: "serial-torn-tail", procs: 1, durable: true, crash: 29},
		row{name: "parallel-bitflip", procs: 4, durable: true, crash: 17, bitflip: true})
}

// TestParallelIngestEquivalence holds parallel generation and the flush's
// probe and annotate fan-out to the serial path over two days at the
// evaluation's configuration, Tables III–V included.
func TestParallelIngestEquivalence(t *testing.T) {
	out := prove(t, scaleWorld, row{name: "workers=8", procs: 8})
	base := baseline(t, scaleWorld)
	for name, table := range map[string]func(*experiments.Env) any{
		"III": func(e *experiments.Env) any { return experiments.TableIII(e) },
		"IV":  func(e *experiments.Env) any { return experiments.TableIV(e) },
		"V":   func(e *experiments.Env) any { return experiments.TableV(e) },
	} {
		if s, p := table(base.env), table(out.env); !reflect.DeepEqual(s, p) {
			t.Errorf("Table %s differs:\n workers=8: %+v\n workers=1: %+v", name, p, s)
		}
	}
}

// TestComposedFeedEquivalence combines axes that no single proof does,
// each in a shape the shipped code runs: a traced, durable three-shard
// cluster whose state directory a fresh BackHalf reopens; a capture
// replay into a durable Local hard-stopped at a seeded hour, its WAL torn,
// then recovered and re-driven by a second replay; three Shippers each
// fed by its own replay of one capture directory (flowsampler -shard
// i/3); and a traced four-worker Local under a polled live console.
func TestComposedFeedEquivalence(t *testing.T) {
	crash := 1 + rand.New(rand.NewSource(replayWorld.seed)).Intn(replayWorld.hours-1)
	proveRows(t, clusterWorld,
		row{name: "3 shards traced durable", shards: 3, traced: true, durable: true},
		row{name: "workers=4 traced console", procs: 4, traced: true, console: true})
	proveRows(t, replayWorld,
		row{name: fmt.Sprintf("replay dir durable crash@%d", crash), capture: "dir", durable: true, crash: crash},
		row{name: "3 shards replay dir", shards: 3, capture: "dir"})
}
