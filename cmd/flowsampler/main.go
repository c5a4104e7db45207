// Command flowsampler is the CAIDA-side binary of Fig. 2: it reads hourly
// telescope captures (a directory polled for newly published hours, or
// one capture file), runs the backscatter filter + TRW scan detector +
// packet sampler over each hour, and ships sampled flows, flow-end
// messages, and per-second reports to the eX-IoT feed server over the
// lossless wire transport (the socat + SSH-tunnel substitute).
//
// Usage:
//
//	flowsampler -in captures/ -connect 127.0.0.1:9410
//
// Hours are read by the replay engine, as exiotd -replay reads them: an
// hour missing from the directory is shipped empty and closed like any
// other, and a torn capture ships the hours before the tear and then ends
// the input.
//
// Multi-node telescope deployments split the source space across N
// ingest nodes with -shard i/N (default 0/1, the whole telescope): each
// node keeps only the packets whose source hashes to its partition
// (trw.ShardIndex), runs detection over that slice, and ships events as
// binary payloads in coalesced batched writes, closing every hour with a
// barrier marker that lets the feed server's aggregator (exiotd -shards
// N) merge the N streams into one canonical hour.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"strings"
	"time"

	"exiot/internal/organizer"
	"exiot/internal/packet"
	"exiot/internal/pipeline"
	"exiot/internal/replay"
	"exiot/internal/telemetry"
	"exiot/internal/trace"
	"exiot/internal/trw"
	"exiot/internal/wire"
)

func main() {
	var (
		in         = flag.String("in", "captures", "directory of hourly pcap.gz captures, or one capture file")
		connect    = flag.String("connect", "127.0.0.1:9410", "feed-server wire address")
		replayWarp = flag.Float64("replay-warp", 0, "time-warp factor: 0 = as fast as possible, 1 = recorded speed, N = N× speed-up")
		follow     = flag.Bool("follow", false, "keep polling the -in directory for newly published hours")
		pollEvery  = flag.Duration("poll", 5*time.Second, "poll interval with -follow")
		threshold  = flag.Int("threshold", 100, "TRW detection threshold (packets)")
		sampleSize = flag.Int("sample", 200, fmt.Sprintf("post-detection sample size (packets, at least %d)", organizer.DefaultMinSamples))
		shard      = flag.String("shard", "0/1", "shard ownership \"i/N\" (0-based): this node keeps source-hash partition i of N; exiotd -shards must equal N")

		traceSample = flag.Int("trace-sample", 0, "trace every Nth sampler event: 0 disables, 1 traces all (shipped events keep their IDs)")
		traceSlow   = flag.Duration("trace-slow", 0, "log completed traces slower than this end-to-end (0 disables the slow log)")
	)
	flag.Parse()
	trace.Default().SetSampleEvery(*traceSample)
	trace.Default().SetSlowThreshold(*traceSlow)
	shardID, shardCount, err := parseShard(*shard)
	if err != nil {
		log.Fatal(err)
	}
	cfg := runConfig{
		in:         *in,
		connect:    *connect,
		replayWarp: *replayWarp,
		follow:     *follow,
		pollEvery:  *pollEvery,
		threshold:  *threshold,
		sampleSize: *sampleSize,
		shardID:    shardID,
		shardCount: shardCount,
	}
	if err := run(cfg); err != nil {
		log.Fatal(err)
	}
}

// parseShard parses "i/N" into (i, N).
func parseShard(s string) (id, count int, err error) {
	i, n, ok := strings.Cut(s, "/")
	if ok {
		_, err1 := fmt.Sscanf(i, "%d", &id)
		_, err2 := fmt.Sscanf(n, "%d", &count)
		if err1 == nil && err2 == nil && count > 0 && id >= 0 && id < count {
			return id, count, nil
		}
	}
	return 0, 0, fmt.Errorf("bad -shard %q: want \"i/N\" with 0 <= i < N", s)
}

// runConfig carries flowsampler's run parameters. The node owns
// source-hash partition shardID of shardCount (0 of 1 = everything).
type runConfig struct {
	in, connect           string
	replayWarp            float64
	follow                bool
	pollEvery             time.Duration
	threshold, sampleSize int
	shardID, shardCount   int
}

func run(cfg runConfig) error {
	// A shorter sample is dropped by the organizer: nothing would ship.
	if cfg.sampleSize > 0 && cfg.sampleSize < organizer.DefaultMinSamples {
		return fmt.Errorf("-sample %d is below the %d packets a sampled flow needs to reach the feed",
			cfg.sampleSize, organizer.DefaultMinSamples)
	}
	sender := wire.NewSenderV2(cfg.connect, cfg.shardID, cfg.shardCount)
	defer sender.Close()
	trwCfg := trw.Default()
	trwCfg.DetectionThreshold = cfg.threshold
	trwCfg.SampleSize = cfg.sampleSize
	node := pipeline.NewShipper(trwCfg, cfg.shardID, cfg.shardCount, sender)

	rep := replay.New(replay.Config{
		Warp: cfg.replayWarp,
		Emit: func(pkts []packet.Packet, hour time.Time) error {
			if err := node.ProcessHour(pkts, hour); err != nil {
				return fmt.Errorf("ship events: %w", err)
			}
			st := node.Sampler().DetectorStats()
			fmt.Printf("%s processed: %d packets total, %d scanners, %d samples\n",
				hour.Format("2006-01-02T15"), st.Processed, st.ScannersFound, st.SamplesEmitted)
			return nil
		},
	})
	// A follower re-lists the directory every poll; ReplayDir emits only
	// the hours it has not emitted yet.
	next := rep.Replay
	if cfg.follow {
		next = rep.ReplayDir
	}
	for {
		err := next(cfg.in)
		if errors.Is(err, io.ErrUnexpectedEOF) {
			// The hours before the tear already shipped; end the input on
			// what the damaged capture could prove.
			fmt.Printf("warning: %v\n", err)
			break
		}
		if err != nil {
			return err
		}
		if !cfg.follow {
			break
		}
		time.Sleep(cfg.pollEvery)
	}
	if rep.Hours() == 0 {
		return fmt.Errorf("no capture hours found in %s", cfg.in)
	}
	if err := node.Finish(rep.End()); err != nil {
		return fmt.Errorf("ship events: %w", err)
	}
	fmt.Print(telemetry.Default().LayerSummary())
	return nil
}
