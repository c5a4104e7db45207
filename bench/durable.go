package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"exiot/internal/durable"
	"exiot/internal/pipeline"
	"exiot/internal/simnet"
	"exiot/internal/trw"
)

// stopShare is where in the event stream the first server is hard-stopped.
const stopShare = 0.8

// durableInstance is durable-restart after setup: the sampler-event
// stream of a scan-storm-shaped world, captured once. No packet is
// touched while it measures.
type durableInstance struct {
	world  *simnet.World
	events []stampedEvent
	// hourEnd[h] is the index one past hour h's last event; at[h] the
	// instant the hour's events reached the server.
	hourEnd []int
	at      []time.Time
	dir     string // parent of the per-run state directories

	baseHeap float64
	// reference is the digest of an uninterrupted run without durability.
	reference string
}

// durableSizes is scan-storm's world at a third of the hosts: the
// per-second reports make most of the events either way, and every
// event is applied about 1.3 times (once more when recovery replays it).
var durableSizes = ingestSizes{
	infected: 800, nonIoT: 100, misconfig: 4, backscatter: 2,
	capPerHostHour: 300,
	days:           1, firstHour: 0, hours: 6,
	scanners: 288, scannerHours: 880,
}

func setupDurableRestart(seed int64, dir string) (instance, error) {
	return setupDurable(durableSizes, seed, dir)
}

func setupDurable(z ingestSizes, seed int64, dir string) (instance, error) {
	d := &durableInstance{world: z.world(seed), dir: dir}
	lc := pipeline.DefaultLocalConfig()
	delay := lc.CollectionDelay + lc.ProcessingDelay
	var at time.Time
	sampler := pipeline.NewSamplerWorkers(trw.Default(), 0, 1, func(e pipeline.SamplerEvent) {
		d.events = append(d.events, stampedEvent{e, at})
	})
	var end time.Time
	for h := 0; h < z.hours; h++ {
		hour := d.world.Start().Add(time.Duration(z.firstHour+h) * time.Hour)
		end = hour.Add(time.Hour)
		at = end.Add(delay)
		sampler.ProcessHour(d.world.GenerateHour(hour), end)
		d.hourEnd = append(d.hourEnd, len(d.events))
		d.at = append(d.at, at)
	}
	// The flows still live when the capture ends close in one last batch.
	at = end.Add(time.Hour).Add(delay)
	sampler.Flush(end)
	d.hourEnd = append(d.hourEnd, len(d.events))
	d.at = append(d.at, at)
	if len(d.events) == 0 {
		return nil, fmt.Errorf("the world produced no sampler events")
	}
	d.baseHeap = liveHeapMB()
	return d, nil
}

func (d *durableInstance) close() error { return nil }

// durableNode is one feed-server process of the workload: a server, its
// state directory, and the read side in front of it.
type durableNode struct {
	srv   *pipeline.Server
	dur   *pipeline.Durable
	front *feedFront
	// recovered is how long OpenDurable took.
	recovered time.Duration
}

// open starts a node on dir the way a starting exiotd does: OpenDurable
// recovers whatever the directory holds. An empty dir means no
// durability (the reference run).
func (d *durableInstance) open(dir string, workers int, rec *recorder) (*durableNode, error) {
	sc := pipeline.DefaultServerConfig()
	sc.Workers = workers
	n := &durableNode{srv: pipeline.NewServer(sc, d.world, d.world.Registry(), nil)}
	if dir != "" {
		id := rec.begin("durable.recover")
		start := time.Now()
		dur, err := pipeline.OpenDurable(pipeline.DurableConfig{Dir: dir}, n.srv)
		n.recovered = time.Since(start)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		n.dur = dur
	}
	n.front = newFeedFront(n.srv, rec)
	if dir != "" {
		// A consumer starts over from cursor 0 when the server restarts
		// (docs/FEED_CONSUMERS.md): on a recovered node that is the whole
		// restored feed.
		n.front.poll()
	}
	return n, nil
}

// stop ends the process without a final snapshot: appends reach the
// segment file as they are made, so closing it leaves what a kill would.
func (n *durableNode) stop() error {
	n.front.close()
	if n.dur == nil {
		return nil
	}
	return n.dur.Close()
}

// durableUnit is one pass: write, hard stop, recover, finish.
type durableUnit struct {
	wall      time.Duration
	recover   time.Duration
	latencies []float64
	alloc     [2]memMark
	last      *durableNode
	export    []byte

	appendNS, snapshotNS    int64
	snapshots               int
	walBytes, snapshotBytes int64
	replayed                int
}

// feed applies events [from, to) to n. After the last event of each hour
// it does the housekeeping pipeline.Local does at an hour's end and polls
// the read side: that instant is when the hour's records are served.
func (d *durableInstance) feed(n *durableNode, from, to int, rec *recorder, u *durableUnit, ready *time.Time) {
	hour := 0
	for hour < len(d.hourEnd)-1 && d.hourEnd[hour] <= from {
		hour++
	}
	for i := from; i < to; i++ {
		ev := &d.events[i]
		if n.dur != nil {
			id := rec.begin("durable.append")
			n.dur.Append(ev.e, ev.at)
			rec.end(id)
		}
		id := rec.begin("server.handle")
		n.srv.HandleEvent(ev.e, ev.at)
		rec.end(id)
		// An hour without events shares its end index with the one before.
		for ; hour < len(d.hourEnd) && d.hourEnd[hour] == i+1; hour++ {
			d.endHour(n, hour, rec)
			now := time.Now()
			u.latencies = append(u.latencies, ms(now.Sub(*ready)))
			*ready = now
		}
	}
}

// endHour is the housekeeping after an hour's last event: Tick, then a
// snapshot if one is due, then the consumer's poll. The last hour holds
// the flows that were still live: it also flushes the pending scans and
// forces the final snapshot, as pipeline.Local's Finish and Close do.
func (d *durableInstance) endHour(n *durableNode, hour int, rec *recorder) {
	last := hour == len(d.hourEnd)-1
	if last {
		id := rec.begin("server.flushscans")
		n.srv.FlushScans(d.at[hour])
		rec.end(id)
	}
	id := rec.begin("server.tick")
	n.srv.Tick(d.at[hour])
	rec.end(id)
	if n.dur != nil {
		id := rec.begin("durable.snapshot")
		n.dur.MaybeSnapshot(d.at[hour], last)
		rec.end(id)
	}
	n.front.poll()
}

// dirBytes adds up the files in dir whose names match pattern.
func dirBytes(dir, pattern string) int64 {
	names, _ := filepath.Glob(filepath.Join(dir, pattern))
	var total int64
	for _, name := range names {
		if fi, err := os.Stat(name); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// snapshotFiles counts the snapshots in a state directory (every one
// written is still there: none is two weeks old) and sizes the newest.
func snapshotFiles(dir string) (count int, newest int64) {
	names, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(names) == 0 {
		return 0, 0
	}
	sort.Strings(names)
	if fi, err := os.Stat(names[len(names)-1]); err == nil {
		newest = fi.Size()
	}
	return len(names), newest
}

// runOnce drives the stream through a first node, stops it at stopShare,
// recovers a second node from the state directory and finishes there.
func (d *durableInstance) runOnce(workers int, rec *recorder) (*durableUnit, error) {
	dir, err := os.MkdirTemp(d.dir, "state-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	u := &durableUnit{}
	u.alloc[0] = markMem()
	start := time.Now()
	root := rec.begin("run")
	rec.setTrace(1)
	ready := start
	first, err := d.open(dir, workers, rec)
	if err != nil {
		return nil, err
	}
	stop := int(stopShare * float64(len(d.events)))
	d.feed(first, 0, stop, rec, u, &ready)
	if err := first.stop(); err != nil {
		return nil, err
	}
	u.walBytes = dirBytes(dir, "wal-*.seg")
	for _, bad := range first.front.bad {
		return nil, fmt.Errorf("before the stop: %s", bad)
	}

	rec.setTrace(2)
	second, err := d.open(dir, workers, rec)
	if err != nil {
		return nil, err
	}
	u.recover = second.recovered
	info := second.dur.Recovery()
	u.replayed = info.ReplayedEvents
	if got := int(info.Events()); got != stop {
		second.stop()
		return nil, fmt.Errorf("recovered %d events, appended %d", got, stop)
	}
	rec.setTrace(3)
	d.feed(second, stop, len(d.events), rec, u, &ready)
	u.export = second.front.export()
	rec.end(root)
	u.wall = time.Since(start)
	u.alloc[1] = markMem()
	u.last = second
	u.snapshots, u.snapshotBytes = snapshotFiles(dir)
	if err := second.dur.Err(); err != nil {
		second.stop()
		return nil, err
	}
	return u, nil
}

// uninterrupted is the reference: the same stream through one server with
// no state directory.
func (d *durableInstance) uninterrupted(workers int) (string, []string, error) {
	n, err := d.open("", workers, nil)
	if err != nil {
		return "", nil, err
	}
	defer n.stop()
	var u durableUnit
	ready := time.Now()
	d.feed(n, 0, len(d.events), nil, &u, &ready)
	export := n.front.export()
	return sha256Hex(export), checkFeed(n.front.pages, export, isScanner(d.world)), nil
}

func (d *durableInstance) observe(obs *observation, u *durableUnit) {
	obs.repeats++
	obs.ops += float64(len(d.events))
	obs.rates = append(obs.rates, float64(len(d.events))/u.wall.Seconds())
	obs.latencies = append(obs.latencies, u.latencies...)
	obs.addAllocs(u.alloc[0], u.alloc[1])
	for _, bad := range u.last.front.bad {
		obs.check(false, "%s", bad)
	}
	// The consumer restarted its cursor with the server: the second
	// node's pages alone must mirror to the whole export.
	if obs.repeats == 1 {
		wrong := checkFeed(u.last.front.pages, u.export, isScanner(d.world))
		obs.check(len(wrong) == 0, "first run: %v", wrong)
	}
	sum := sha256Hex(u.export)
	obs.check(sum == d.reference, "run %d recovered to export %s, an uninterrupted run gives %s", obs.repeats, sum, d.reference)
}

// prepare computes the reference digest once per instance.
func (d *durableInstance) prepare(obs *observation) error {
	ref, wrong, err := d.uninterrupted(1)
	if err != nil {
		return err
	}
	obs.check(len(wrong) == 0, "uninterrupted run: %v", wrong)
	d.reference, obs.digest = ref, ref
	return nil
}

func (d *durableInstance) measure(dur time.Duration) (*observation, error) {
	obs := &observation{}
	if err := d.prepare(obs); err != nil {
		return nil, err
	}
	var last *durableUnit
	for start := time.Now(); obs.repeats == 0 || time.Since(start) < dur; {
		u, err := d.runOnce(1, nil)
		if err != nil {
			return nil, err
		}
		d.observe(obs, u)
		if last != nil {
			last.last.stop()
		}
		last = u
	}
	obs.liveHeapMB = liveHeapMB() - d.baseHeap
	runtime.KeepAlive(last)
	last.last.stop()
	return obs, nil
}

func (d *durableInstance) traced(dur time.Duration) (map[string]float64, *observation, []span, error) {
	obs := &observation{}
	if err := d.prepare(obs); err != nil {
		return nil, nil, nil, err
	}
	// Once at the default of one worker per processor: the probe pool and
	// the annotate fan-out are all that changes on this path.
	par, err := d.runOnce(0, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	d.observe(obs, par)
	par.last.stop()

	plainWalls, tracedWalls, last, rec, err := serialRuns(dur, func(r *recorder) (*durableUnit, time.Duration, error) {
		u, err := d.runOnce(1, r)
		if err != nil {
			return nil, 0, err
		}
		d.observe(obs, u)
		return u, u.wall, nil
	}, func(u *durableUnit) { u.last.stop() })
	if err != nil {
		return nil, nil, nil, err
	}
	defer last.last.stop()
	spans := rec.snapshot()
	by := sumByName(spans)

	// The rungs need a server that saw the whole stream in one piece.
	whole := newSerialSink(d.world, nil)
	for i := range d.events {
		whole.at = d.events[i].at
		whole.srv.HandleEvent(d.events[i].e, whole.at)
		whole.tickCounted()
	}
	whole.srv.FlushScans(whole.at)
	whole.events = d.events
	br, err := runBackRungs(d.world, whole.srv, d.events)
	if err != nil {
		return nil, nil, nil, err
	}
	wireNS, err := wireRung(d.events)
	if err != nil {
		return nil, nil, nil, err
	}
	restoreMS, err := d.restoreRung()
	if err != nil {
		return nil, nil, nil, err
	}
	ar := runAPIRungs(last.last.front.handler)

	events := float64(len(d.events))
	hours := float64(len(d.hourEnd))
	m := map[string]float64{
		"sampler.batches":             float64(br.batchEvents),
		"sampler.flow_ends":           float64(br.flowEndEvents),
		"sampler.reports":             float64(br.reportEvents),
		"parallel_ops_per_s":          events / par.wall.Seconds(),
		"serial_ops_per_s":            events / median(plainWalls),
		"serial_events_per_s":         events / median(plainWalls),
		"trace.overhead_share":        median(tracedWalls)/median(plainWalls) - 1,
		"durable.append_ns_per_event": float64(by["durable.append"].Total) / events,
		"durable.wal_bytes_per_event": float64(last.walBytes) / float64(int(stopShare*events)),
		"durable.snapshot_mb":         float64(last.snapshotBytes) / (1 << 20),
		"durable.restore_ms":          restoreMS,
		"durable.recover_ms":          ms(last.recover),
		"wire.v2_ns_per_event":        wireNS,
	}
	if last.snapshots > 0 {
		// The calls that found no snapshot due return at once.
		m["durable.snapshot_ms"] = float64(by["durable.snapshot"].Total) / 1e6 / float64(last.snapshots)
	}
	if last.replayed > 0 {
		m["durable.replay_ns_per_event"] = (float64(last.recover) - restoreMS*1e6) / float64(last.replayed)
	}
	br.report(m, whole, by, events, hours)
	// Two nodes served this run; the read-path counts are the second's.
	last.last.front.report(m, by)
	ar.report(m)

	root := float64(by["run"].Total)
	back := float64(by["server.handle"].Total + by["server.tick"].Total + by["server.flushscans"].Total +
		by["durable.append"].Total + by["durable.snapshot"].Total + by["durable.recover"].Total)
	serve := float64(by["feedserve.rebuild"].Total + by["api.cursor"].Total + by["api.export"].Total)
	// Appends and snapshots are spans around one layer. Recovery is its
	// restore rung plus, for each replayed event, a decode and the
	// server's work on it once more.
	perEvent := br.explainedNS(whole) / events
	explained := br.explainedNS(whole) + float64(by["durable.append"].Total+by["durable.snapshot"].Total) +
		restoreMS*1e6 + float64(last.replayed)*(br.jsonDecNS+perEvent) + serve
	m["ladder.back_s"] = back / 1e9
	m["ladder.serve_s"] = serve / 1e9
	m["ladder.unexplained_share"] = 1 - explained/root
	return m, obs, spans, nil
}

// restoreRung times what recovery does before it replays: open the state
// directory a stopped run left, read its latest snapshot, restore a fresh
// server from it.
func (d *durableInstance) restoreRung() (float64, error) {
	dir, err := os.MkdirTemp(d.dir, "state-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	n, err := d.open(dir, 1, nil)
	if err != nil {
		return 0, err
	}
	var u durableUnit
	ready := time.Now()
	d.feed(n, 0, int(stopShare*float64(len(d.events))), nil, &u, &ready)
	if err := n.stop(); err != nil {
		return 0, err
	}

	start := time.Now()
	mgr, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		return 0, err
	}
	defer mgr.Close()
	_, payload, err := mgr.LatestSnapshot()
	if err != nil {
		return 0, err
	}
	if payload == nil {
		return 0, nil
	}
	sc := pipeline.DefaultServerConfig()
	sc.Workers = 1
	srv := pipeline.NewServer(sc, d.world, d.world.Registry(), nil)
	if err := srv.RestoreState(payload); err != nil {
		return 0, err
	}
	return ms(time.Since(start)), nil
}
