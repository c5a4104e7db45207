package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"exiot/internal/packet"
	"exiot/internal/pcapio"
	"exiot/internal/pipeline"
	"exiot/internal/registry"
	"exiot/internal/replay"
	"exiot/internal/simnet"
	"exiot/internal/store"
	"exiot/internal/trw"
)

// ingestSizes fixes a packets-in workload. The sizes are part of the
// benchmark: changing one starts a new baseline.
type ingestSizes struct {
	infected, nonIoT, misconfig, backscatter int
	capPerHostHour                           int
	// The world spans days; the workload is hours of it from firstHour.
	days, firstHour, hours int
	// scanners and noise are how many scanning hosts and how many
	// misconfigured or backscatter hosts are active in those hours;
	// scannerHours adds up, over the scanners, the hours left when each
	// first became active (see world). Zero leaves a figure to chance.
	scanners, scannerHours, noise int
	// fromDisk writes the hours as hourly pcap.gz in setup and replays
	// them; otherwise they are handed over from memory.
	fromDisk bool
}

// telescopeDaySizes: the mix a quiet telescope sees — backscatter and
// misconfigured nodes send most packets, few sources scan: about 110 k
// packets and 8 sampled flows an hour, a quarter of the packets an hour
// the issue started from at the same packets per record, so that an hour
// is ready in under 100 ms and a run holds a hundred of them.
var telescopeDaySizes = ingestSizes{
	infected: 75, nonIoT: 12, misconfig: 400, backscatter: 100,
	capPerHostHour: 1000,
	days:           1, firstHour: 6, hours: 11,
	scanners: 83, scannerHours: 628, noise: 268,
	fromDisk: true,
}

// scanStormSizes: a botnet recruiting — a thousand sources come online
// over the hours and each sends only a few hundred packets an hour, so
// most just cross the TRW threshold and every thousand packets make a
// record. The hours grow: an odd number of them keeps the median hour in
// the middle of one, not on the step between two.
var scanStormSizes = ingestSizes{
	infected: 1600, nonIoT: 200, misconfig: 4, backscatter: 2,
	capPerHostHour: 300,
	days:           1, firstHour: 0, hours: 7,
	scanners: 662, scannerHours: 2332,
}

// world draws the seed's world. simnet places every host's sessions
// independently, so the number of hosts active in the workload's hours
// varies by a few percent from seed to seed, and what a run costs by up
// to the square of that: the server walks its whole store on every
// event, so the work follows how long each source has been in it. A seed
// is there to vary the traffic, not the size of the workload: the world
// is redrawn, deterministically from the seed, until the active hosts,
// and the hours the scanners are there for, number what the sizes say to
// within 1 % (or one host).
func (z ingestSizes) world(seed int64) *simnet.World {
	from := time.Duration(z.firstHour) * time.Hour
	to := from + time.Duration(z.hours)*time.Hour
	near := func(got, want int) bool {
		return want == 0 || abs(got-want) <= 1 || 100*abs(got-want) <= want
	}
	// One address plan for every draw: building it is most of a world.
	reg := registry.Build(registry.Config{Seed: seed, Blocks: 1024})
	for try := int64(0); ; try++ {
		cfg := simnet.DefaultConfig(seed + try*1_000_003)
		cfg.Registry = reg
		cfg.NumInfected = z.infected
		cfg.NumNonIoT = z.nonIoT
		cfg.NumMisconfig = z.misconfig
		cfg.NumBackscat = z.backscatter
		cfg.MaxPacketsPerHostHour = z.capPerHostHour
		cfg.Days = z.days
		w := simnet.NewWorld(cfg)
		scanners, noise := 0, 0
		var left time.Duration
		for _, h := range w.Hosts() {
			first, active := h.FirstActiveIn(w.Start().Add(from), w.Start().Add(to))
			switch {
			case !active:
			case h.Kind == simnet.KindMisconfigured || h.Kind == simnet.KindBackscatter:
				noise++
			default:
				scanners++
				left += w.Start().Add(to).Sub(first)
			}
		}
		// A few dozen draws find a match for sizes near what simnet
		// produces on average. Sizes far from that never match: the
		// thousandth draw is taken as it is, and the ten-seed spread
		// (README.md, Comparing two commits) shows the mistake.
		if (near(scanners, z.scanners) && near(int(left.Hours()), z.scannerHours) && near(noise, z.noise)) || try == 1000 {
			return w
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// ingestInstance is telescope-day or scan-storm after setup.
type ingestInstance struct {
	sizes ingestSizes
	world *simnet.World
	hours []time.Time
	dir   string            // fromDisk: the capture directory
	mem   [][]packet.Packet // otherwise: the hours
	pkts  int64

	fileBytes int64
	baseHeap  float64 // live heap once the inputs exist
}

func setupTelescopeDay(seed int64, dir string) (instance, error) {
	return setupIngest(telescopeDaySizes, seed, dir)
}

func setupScanStorm(seed int64, dir string) (instance, error) {
	return setupIngest(scanStormSizes, seed, dir)
}

func setupIngest(z ingestSizes, seed int64, dir string) (instance, error) {
	in := &ingestInstance{sizes: z, world: z.world(seed)}
	for h := 0; h < z.hours; h++ {
		in.hours = append(in.hours, in.world.Start().Add(time.Duration(z.firstHour+h)*time.Hour))
	}
	if !z.fromDisk {
		for _, hour := range in.hours {
			pkts := in.world.GenerateHour(hour)
			in.mem = append(in.mem, pkts)
			in.pkts += int64(len(pkts))
		}
		in.baseHeap = liveHeapMB()
		return in, nil
	}

	var err error
	if in.dir, err = os.MkdirTemp(dir, "capture-"); err != nil {
		return nil, err
	}
	// Compressing an hour takes several times as long as generating it:
	// the writers run beside the generator, one per processor.
	var (
		wg       sync.WaitGroup
		slots    = make(chan struct{}, runtime.GOMAXPROCS(0))
		firstErr atomic.Pointer[error]
	)
	for _, hour := range in.hours {
		pkts := in.world.GenerateHour(hour)
		in.pkts += int64(len(pkts))
		slots <- struct{}{}
		wg.Add(1)
		go func(hour time.Time, pkts []packet.Packet) {
			defer wg.Done()
			defer func() { <-slots }()
			if err := writeHour(in.dir, hour, pkts); err != nil {
				firstErr.CompareAndSwap(nil, &err)
			}
		}(hour, pkts)
	}
	wg.Wait()
	if errp := firstErr.Load(); errp != nil {
		in.close()
		return nil, *errp
	}
	for _, hour := range in.hours {
		fi, err := os.Stat(filepath.Join(in.dir, pcapio.HourFileName(hour)))
		if err != nil {
			in.close()
			return nil, err
		}
		in.fileBytes += fi.Size()
	}
	in.baseHeap = liveHeapMB()
	return in, nil
}

func writeHour(dir string, hour time.Time, pkts []packet.Packet) error {
	hw, err := pcapio.CreateHour(dir, hour)
	if err != nil {
		return err
	}
	for i := range pkts {
		if err := hw.WritePacket(&pkts[i]); err != nil {
			return err
		}
	}
	return hw.Close()
}

func (in *ingestInstance) close() error {
	if in.dir == "" {
		return nil
	}
	return os.RemoveAll(in.dir)
}

// isScanner is simnet's ground truth for the scan-precision check.
func isScanner(w *simnet.World) func(ip string) bool {
	return func(s string) bool {
		ip, err := packet.ParseIP(s)
		if err != nil {
			return false
		}
		h, ok := w.HostByIP(ip)
		return ok && (h.Kind == simnet.KindInfectedIoT || h.Kind == simnet.KindNonIoTScanner || h.Kind == simnet.KindResearchScanner)
	}
}

// hourSink is the write side of a pipeline under test.
type hourSink interface {
	processHour(pkts []packet.Packet, hour time.Time)
	finish(end time.Time) error
	server() *pipeline.Server
}

// localSink is the production wiring, pipeline.Local with its defaults,
// at a given Workers: 1 is the serial path the end-to-end metrics are
// measured on, 0 the default of one worker per processor (see README.md,
// "Why Workers 1").
type localSink struct{ l *pipeline.Local }

func newLocalSink(w *simnet.World, workers int) *localSink {
	cfg := pipeline.DefaultLocalConfig()
	cfg.Workers = workers
	return &localSink{pipeline.NewLocal(cfg, w, w.Registry(), nil)}
}

func (s *localSink) processHour(pkts []packet.Packet, hour time.Time) { s.l.ProcessHour(pkts, hour) }
func (s *localSink) server() *pipeline.Server                         { return s.l.Server() }
func (s *localSink) finish(end time.Time) error {
	s.l.Finish(end)
	return s.l.Close()
}

// stampedEvent is a sampler event with the instant it reached the server.
type stampedEvent struct {
	e  pipeline.SamplerEvent
	at time.Time
}

// serialSink is the benchmark's own wiring of the same two halves on one
// goroutine — what pipeline.Local does at Workers 1 — with a span around
// every call into a layer. It keeps the event stream for the rungs.
type serialSink struct {
	rec     *recorder
	sampler *pipeline.Sampler
	srv     *pipeline.Server
	delay   time.Duration
	at      time.Time

	events []stampedEvent
	// stored follows the historical store's size through its mutation
	// hook; sizeAtTicks adds it up over every Tick the server ran, which
	// is what Expire's walk costs in total.
	stored      atomic.Int64
	sizeAtTicks int64
	ticks       int
}

func newSerialSink(w *simnet.World, rec *recorder) *serialSink {
	lc := pipeline.DefaultLocalConfig()
	sc := lc.Server
	sc.Workers = 1
	s := &serialSink{rec: rec, delay: lc.CollectionDelay + lc.ProcessingDelay}
	s.srv = pipeline.NewServer(sc, w, w.Registry(), nil)
	s.srv.Historical().AddHook(func(m store.Mutation) {
		if m.Op == "insert" {
			s.stored.Add(1)
		}
	})
	s.sampler = pipeline.NewSamplerWorkers(trw.Default(), 0, 1, func(e pipeline.SamplerEvent) {
		id := rec.begin("server.handle")
		s.srv.HandleEvent(e, s.at)
		rec.end(id)
		s.events = append(s.events, stampedEvent{e, s.at})
		s.tickCounted()
	})
	return s
}

func (s *serialSink) tickCounted() {
	s.ticks++
	s.sizeAtTicks += s.stored.Load()
}

func (s *serialSink) server() *pipeline.Server { return s.srv }

func (s *serialSink) processHour(pkts []packet.Packet, hour time.Time) {
	hourEnd := hour.Add(time.Hour)
	s.at = hourEnd.Add(s.delay)
	id := s.rec.begin("sampler")
	s.sampler.ProcessHour(pkts, hourEnd)
	s.rec.end(id)
	id = s.rec.begin("server.tick")
	s.srv.Tick(s.at)
	s.rec.end(id)
	s.tickCounted()
}

func (s *serialSink) finish(end time.Time) error {
	s.at = end.Add(s.delay)
	id := s.rec.begin("sampler")
	s.sampler.Flush(end)
	s.rec.end(id)
	id = s.rec.begin("server.flushscans")
	s.srv.FlushScans(s.at)
	s.rec.end(id)
	id = s.rec.begin("server.tick")
	s.srv.Tick(s.at)
	s.rec.end(id)
	s.tickCounted()
	return nil
}

// unit is one pass of an ingest workload's hours through a pipeline.
type unit struct {
	wall      time.Duration
	latencies []float64 // ms per hour: hand-in to the hour's records served
	alloc     [2]memMark
	front     *feedFront
	export    []byte
	sink      hourSink
}

// drive hands every hour to sink and, after each, rebuilds the snapshot
// and polls the cursor as a consumer would; then it ends the run and
// fetches the final page and the export. The wall time is from the first
// hour handed in to the last verified response.
func (in *ingestInstance) drive(sink hourSink, rec *recorder) (*unit, error) {
	u := &unit{sink: sink, front: newFeedFront(sink.server(), rec)}
	u.alloc[0] = markMem()
	start := time.Now()
	root := rec.begin("run")
	ready := start
	hourNo := int32(1)
	rec.setTrace(hourNo)
	hourSpan := rec.begin("hour")
	onHour := func(pkts []packet.Packet, hour time.Time) error {
		if in.sizes.fromDisk {
			// Since the last hour was ready the replayer has been
			// reading this one.
			rec.add("replay", hourNo, hourSpan, ready, time.Now())
		}
		sink.processHour(pkts, hour)
		u.front.poll()
		now := time.Now()
		u.latencies = append(u.latencies, ms(now.Sub(ready)))
		ready = now
		rec.end(hourSpan)
		hourNo++
		rec.setTrace(hourNo)
		hourSpan = rec.begin("hour")
		return nil
	}

	end := in.hours[len(in.hours)-1].Add(time.Hour)
	if in.sizes.fromDisk {
		r := replay.New(replay.Config{Emit: onHour})
		if err := r.ReplayDir(in.dir); err != nil {
			return nil, err
		}
		if r.Packets() != in.pkts || !r.End().Equal(end) {
			return nil, fmt.Errorf("replayed %d packets to %s, wrote %d to %s", r.Packets(), r.End(), in.pkts, end)
		}
	} else {
		for h, hour := range in.hours {
			onHour(in.mem[h], hour)
		}
	}
	// The span opened for a next hour holds the end of the run instead.
	rec.rename(hourSpan, "finish")
	if err := sink.finish(end); err != nil {
		return nil, err
	}
	u.front.poll()
	u.export = u.front.export()
	rec.end(hourSpan)
	rec.end(root)
	u.wall = time.Since(start)
	u.alloc[1] = markMem()
	return u, nil
}

func (in *ingestInstance) measure(d time.Duration) (*observation, error) {
	obs := &observation{}
	var last *unit
	for start := time.Now(); obs.repeats == 0 || time.Since(start) < d; {
		u, err := in.drive(newLocalSink(in.world, 1), nil)
		if err != nil {
			return nil, err
		}
		in.observe(obs, u)
		if last != nil {
			last.front.close()
		}
		last = u
	}
	// The last pipeline is still reachable: flow table, stores, snapshot.
	obs.liveHeapMB = liveHeapMB() - in.baseHeap
	runtime.KeepAlive(last)
	last.front.close()
	return obs, nil
}

// observe folds one unit into obs. The first unit is checked thoroughly
// and its digest becomes the reference; later ones must serve the same
// bytes.
func (in *ingestInstance) observe(obs *observation, u *unit) {
	obs.repeats++
	obs.ops += float64(in.pkts)
	obs.rates = append(obs.rates, float64(in.pkts)/u.wall.Seconds())
	obs.latencies = append(obs.latencies, u.latencies...)
	obs.addAllocs(u.alloc[0], u.alloc[1])
	for _, bad := range u.front.bad {
		obs.check(false, "%s", bad)
	}
	if obs.digest == "" {
		obs.digest = u.front.sum()
		wrong := checkFeed(u.front.pages, u.export, isScanner(in.world))
		obs.check(len(wrong) == 0, "first run: %v", wrong)
		return
	}
	obs.check(u.front.sum() == obs.digest, "run %d served digest %s, the first %s", obs.repeats, u.front.sum(), obs.digest)
}
