// Command exiotd is the eX-IoT feed server of Fig. 2: it receives sampled
// flows from the CAIDA-side flowsampler (or runs a self-contained
// simulation), drives the scan/annotate/update-classifier modules,
// maintains the feed databases, and serves the authenticated REST API.
//
// Split deployment (with cmd/telescopegen + cmd/flowsampler):
//
//	exiotd -listen 127.0.0.1:9410 -api 127.0.0.1:8080 -seed 42
//
// Self-contained simulation:
//
//	exiotd -simulate -hours 24 -api 127.0.0.1:8080 -seed 42
//
// Capture replay (hourly directory or single file, optional time-warp):
//
//	exiotd -replay captures/ -replay-warp 0 -api 127.0.0.1:8080 -seed 42
//
// In split and replay mode the world is rebuilt from the same seed and
// population flags used by telescopegen so active probes are answered by
// the same simulated Internet that produced the captures (in a real
// deployment the prober is the Internet itself). The hosts also depend on
// the world's span, ⌈-hours/24⌉ days here, so pass -hours = 24 ×
// telescopegen's -days (not its -hours).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"

	"exiot/internal/api"
	"exiot/internal/campaign"
	"exiot/internal/console"
	"exiot/internal/durable"
	"exiot/internal/feedserve"
	"exiot/internal/notify"
	"exiot/internal/packet"
	"exiot/internal/pipeline"
	"exiot/internal/replay"
	"exiot/internal/simnet"
	"exiot/internal/telemetry"
	"exiot/internal/trace"
	"exiot/internal/wire"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:9410", "wire address to receive sampler events on")
		shards    = flag.Int("shards", 1, "ingest shard count N to merge: one flowsampler -shard i/N per partition, each hour released once all N close it")
		apiAddr   = flag.String("api", "127.0.0.1:8080", "REST API listen address")
		apiKey    = flag.String("key", "dev-key", "API key to provision")
		simulate  = flag.Bool("simulate", false, "run a self-contained simulation instead of receiving")
		replayIn  = flag.String("replay", "", "replay a recorded capture (hourly directory or single .pcap/.pcap.gz file) instead of receiving or simulating")
		replayWrp = flag.Float64("replay-warp", 0, "replay time-warp factor: 0 = as fast as possible, 1 = recorded speed, N = N× speed-up")
		hours     = flag.Int("hours", 24, "simulated hours with -simulate; the rebuilt world spans ⌈hours/24⌉ days, so in split or replay mode pass 24 × telescopegen's -days")
		seed      = flag.Int64("seed", 42, "world seed (must match telescopegen in split mode)")

		infected  = flag.Int("infected", 300, "infected IoT devices (world rebuild)")
		nonIoT    = flag.Int("noniot", 60, "non-IoT scanning hosts (world rebuild)")
		research  = flag.Int("research", 6, "research scanners (world rebuild)")
		misconfig = flag.Int("misconfig", 40, "misconfigured nodes (world rebuild)")
		backscat  = flag.Int("backscatter", 10, "backscatter sources (world rebuild)")
		whois     = flag.Bool("notify-whois", false, "send WHOIS abuse-contact notifications")
		modelDir  = flag.String("models", "", "model archive directory (archive daily models; restore latest on start)")
		telAddr   = flag.String("telemetry-addr", "", "operator telemetry listen address (/metrics, /healthz, /debug/pprof); empty disables")

		stateDir  = flag.String("state-dir", "", "durable state directory (WAL + snapshots; recover on start, empty disables)")
		stateSync = flag.String("state-sync", "interval", "WAL fsync policy: always|interval|off")
		stateSnap = flag.Duration("state-snapshot-every", 6*time.Hour, "simulated-time snapshot cadence")

		traceSample = flag.Int("trace-sample", 0, "trace every Nth sampler event: 0 disables, 1 traces all (feed bytes are identical either way)")
		traceSlow   = flag.Duration("trace-slow", 0, "log completed traces slower than this end-to-end (0 disables the slow log)")

		feedRebuild = flag.Duration("feed-rebuild-every", 2*time.Second, "minimum interval between feed snapshot/export rebuilds")

		consoleOn = flag.Bool("console", false, "serve the operator dashboard at /console/ on the telemetry address (requires -telemetry-addr)")
	)
	flag.Parse()
	if *consoleOn && *telAddr == "" {
		log.Fatal("-console requires -telemetry-addr (the dashboard rides the operator mux)")
	}
	trace.Default().SetSampleEvery(*traceSample)
	trace.Default().SetSlowThreshold(*traceSlow)
	dcfg := pipeline.DurableConfig{
		Dir:           *stateDir,
		Sync:          durable.SyncPolicy(*stateSync),
		SnapshotEvery: *stateSnap,
	}
	if *simulate && *replayIn != "" {
		log.Fatal("-simulate and -replay are mutually exclusive")
	}
	if *shards < 1 {
		log.Fatal("-shards must be at least 1")
	}
	if err := run(*listen, *shards, *apiAddr, *apiKey, *simulate, *hours, *seed,
		*infected, *nonIoT, *research, *misconfig, *backscat, *whois, *modelDir, *telAddr, *consoleOn, dcfg, *feedRebuild, *replayIn, *replayWrp); err != nil {
		log.Fatal(err)
	}
}

func run(listen string, shards int, apiAddr, apiKey string, simulate bool, hours int, seed int64,
	infected, nonIoT, research, misconfig, backscat int, whois bool, modelDir, telAddr string,
	consoleOn bool, dcfg pipeline.DurableConfig, rebuildEvery time.Duration, replayIn string, replayWarp float64) error {
	var opMux *http.ServeMux
	if telAddr != "" {
		// The operator mux is separate from the public API: it carries
		// pprof and needs no key. The API's own /metrics and /healthz stay
		// available either way.
		opMux = telemetry.NewMux()
		// The trace store rides the operator mux: /traces (list) and
		// /traces/{id} (span detail). The console registers later, once
		// the pipeline exists (ServeMux registration is concurrency-safe).
		trace.Default().Store().Register(opMux)
		go func() {
			if err := newHTTPServer(telAddr, opMux).ListenAndServe(); err != nil {
				log.Printf("telemetry listener: %v", err)
			}
		}()
		fmt.Printf("telemetry on http://%s (/metrics, /healthz, /traces, /debug/pprof)\n", telAddr)
	}

	wcfg := simnet.DefaultConfig(seed)
	wcfg.NumInfected = infected
	wcfg.NumNonIoT = nonIoT
	wcfg.NumResearch = research
	wcfg.NumMisconfig = misconfig
	wcfg.NumBackscat = backscat
	wcfg.Days = (hours + 23) / 24
	w := simnet.NewWorld(wcfg)

	mailer := &notify.MemoryMailer{}
	pcfg := pipeline.DefaultLocalConfig()
	pcfg.Server.Notify = notify.Config{NotifyWhois: whois}
	pcfg.Server.Trainer.ModelDir = modelDir
	pcfg.Durable = dcfg

	var source *pipeline.Server
	if simulate || replayIn != "" {
		// -simulate and -replay drive the same Local pipeline and differ
		// only in where the hours come from. On -replay the world is
		// rebuilt from the shared seed only so active probes are answered
		// (split-mode convention); the packets come from the capture.
		local, err := pipeline.NewDurableLocal(pcfg, w, w.Registry(), mailer)
		if err != nil {
			return fmt.Errorf("open state dir: %w", err)
		}
		// On resume the input is re-driven from its start: deliveries the
		// recovered state holds are skipped, and that heals a torn tail.
		printRecovery(local.Durable())
		start := time.Now()
		ran, end, err := driveLocal(local, w, hours, replayIn, replayWarp)
		if err != nil {
			return err
		}
		local.Finish(end)
		if err := local.Close(); err != nil {
			return fmt.Errorf("close state dir: %w", err)
		}
		c := local.Server().Counters()
		fmt.Printf("%s in %v: %d records, %d banner labels, %d retrains, %d emails\n",
			ran, time.Since(start).Round(time.Millisecond),
			c.RecordsCreated, c.BannersLabeled, c.ModelRetrains, c.EmailsSent)
		fmt.Print(telemetry.Default().LayerSummary())
		// The batch run is over; the process now serves a static feed.
		// Freeze health so /healthz reports idle instead of stalled.
		telemetry.DefaultHealth().Freeze()
		source = local.Server()
	} else {
		back, err := pipeline.NewBackHalf(pcfg, w, w.Registry(), mailer)
		if err != nil {
			return fmt.Errorf("open state dir: %w", err)
		}
		defer back.Close()
		printRecovery(back.Durable())
		source = back.Server()
		// The recovered state's model (retrained from the restored window)
		// wins over the disk archive: it matches the recovered feed.
		if modelDir != "" && source.LastModel() == nil {
			if err := source.RestoreModel(modelDir); err != nil {
				return fmt.Errorf("restore model: %w", err)
			}
			if m := source.LastModel(); m != nil {
				fmt.Printf("restored model trained %s (AUC %.3f)\n", m.TrainedAt.Format(time.RFC3339), m.AUC)
			}
		}
		// The wire carries the streams of -shards flowsampler nodes, each
		// in the order it was sent; the aggregator drops replayed frames,
		// refuses a sequence gap and merges the streams into the canonical
		// hour before the back half sees them. A refused frame is not
		// acked: its sampler replays it, and gives up with an error once
		// its retries run out.
		agg := back.Receive(shards)
		recv, err := wire.Listen(listen, func(f wire.Frame) error {
			err := agg.Ingest(f)
			if err != nil {
				log.Printf("cluster ingest: %v", err)
			}
			return err
		})
		if err != nil {
			return err
		}
		defer recv.Close()
		fmt.Printf("receiving sampler events on %s (merging %d ingest shards)\n", recv.Addr(), shards)
	}

	var consoleMux *http.ServeMux
	if consoleOn {
		consoleMux = opMux
		fmt.Printf("operator console on http://%s/console/\n", telAddr)
	}
	apiSrv, cache, stop := serveFeed(source, apiKey, rebuildEvery, consoleMux)
	defer stop()
	snap := cache.Current()
	fmt.Printf("feed cache: %d records, export %d B raw, rebuild every %s\n",
		snap.Len(), snap.Size(), rebuildEvery)
	fmt.Printf("REST API on http://%s (key: %s)\n", apiAddr, apiKey)
	return newHTTPServer(apiAddr, apiSrv).ListenAndServe()
}

// The limits both listeners put on a connection (DESIGN.md, "Settings").
// A client that sends half a header, or holds an idle keep-alive
// connection open, gives up its goroutine and buffers after these. There
// is no write timeout: /api/v1/events, the console's stream and pprof's
// profiles write for as long as their client reads.
const (
	// headerTimeout is how long a request's headers may take to arrive.
	headerTimeout = 5 * time.Second
	// idleTimeout is how long a keep-alive connection may wait for its
	// next request: longer than a poller's interval.
	idleTimeout = 2 * time.Minute
	// maxHeaderBytes bounds a request's headers: a key, a cursor and an
	// ETag take a few hundred bytes.
	maxHeaderBytes = 16 << 10
)

// newHTTPServer is the server of each of exiotd's listeners.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: headerTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// driveLocal runs the input's hours through local — the capture at
// replayIn, or else the simulated world's first hours — and returns what
// ran, for the summary, and the end of the last hour.
func driveLocal(local *pipeline.Local, w *simnet.World, hours int, replayIn string, warp float64) (string, time.Time, error) {
	if replayIn == "" {
		for h := 0; h < hours; h++ {
			hour := w.Start().Add(time.Duration(h) * time.Hour)
			local.ProcessHour(w.GenerateHour(hour), hour)
		}
		return fmt.Sprintf("simulated %d h", hours), w.Start().Add(time.Duration(hours) * time.Hour), nil
	}
	rep := replay.New(replay.Config{
		Warp: warp,
		Emit: func(pkts []packet.Packet, hour time.Time) error {
			local.ProcessHour(pkts, hour)
			return nil
		},
	})
	switch err := rep.Replay(replayIn); {
	case err == nil:
	case errors.Is(err, io.ErrUnexpectedEOF):
		// A torn capture already emitted everything before the tear;
		// serve the partial feed and tell the operator (exiotctl
		// capinfo triages the damaged file).
		fmt.Printf("warning: %v\n", err)
	default:
		return "", time.Time{}, err
	}
	if rep.Hours() == 0 {
		return "", time.Time{}, fmt.Errorf("replay %s: no capture hours ingested", replayIn)
	}
	return fmt.Sprintf("replayed %d h (%d packets)", rep.Hours(), rep.Packets()), rep.End(), nil
}

// printRecovery reports the state recovered from -state-dir, if any.
func printRecovery(d *pipeline.Durable) {
	if d == nil || d.Recovery().Events() == 0 {
		return
	}
	r, torn := d.Recovery(), ""
	if r.Truncated {
		torn = " (torn tail truncated)"
	}
	fmt.Printf("recovered feed state: snapshot through seq %d (%d events) + %d WAL events replayed%s\n",
		r.SnapshotSeq, r.SnapshotEvents, r.ReplayedEvents, torn)
}

// serveFeed builds what exiotd serves over the pipeline's server: the
// keyed REST API, the feed cache behind it, and the campaign tracker the
// cache's rebuilds refresh. With a non-nil consoleMux it also mounts and
// starts the operator console there. stop closes what serveFeed started.
func serveFeed(source *pipeline.Server, apiKey string, rebuildEvery time.Duration,
	consoleMux *http.ServeMux) (apiSrv *api.Server, cache *feedserve.Cache, stop func()) {
	apiSrv = api.NewServer(source, source.Notifier())
	apiSrv.AddKey(apiKey, "cli-provisioned")
	cache = source.NewFeedCache(feedserve.Config{RebuildEvery: rebuildEvery})
	apiSrv.SetFeedCache(cache)

	// Rebuilds refresh the tracker from here on; the snapshot the cache
	// built at construction seeds it now.
	tracker := campaign.NewTracker()
	cache.OnRebuild(func(s *feedserve.Snapshot) {
		tracker.Update(s.Campaigns(), time.Now())
	})
	tracker.Update(cache.Current().Campaigns(), time.Now())
	apiSrv.SetCampaignTracker(tracker)

	var con *console.Console
	if consoleMux != nil {
		con = console.New(console.Config{
			Source:  source,
			Traces:  trace.Default().Store(),
			Health:  telemetry.DefaultHealth(),
			Tracker: tracker,
			Feed:    cache,
		})
		con.Register(consoleMux)
		con.Start()
	}
	cache.Start()
	return apiSrv, cache, func() {
		if con != nil {
			con.Close()
		}
		cache.Close()
	}
}
