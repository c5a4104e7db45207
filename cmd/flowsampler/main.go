// Command flowsampler is the CAIDA-side binary of Fig. 2: it polls a
// directory for newly published hourly telescope captures, runs the
// backscatter filter + TRW scan detector + packet sampler over each hour,
// and ships sampled flows, flow-end messages, and per-second reports to
// the eX-IoT feed server over the lossless wire transport (the socat +
// SSH-tunnel substitute).
//
// Usage:
//
//	flowsampler -in captures/ -connect 127.0.0.1:9410
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

	"exiot/internal/packet"
	"exiot/internal/pcapio"
	"exiot/internal/pipeline"
	"exiot/internal/replay"
	"exiot/internal/telemetry"
	"exiot/internal/trace"
	"exiot/internal/trw"
	"exiot/internal/wire"
)

func main() {
	var (
		in         = flag.String("in", "captures", "directory of hourly pcap.gz captures")
		connect    = flag.String("connect", "127.0.0.1:9410", "feed-server wire address")
		replayMode = flag.Bool("replay", false, "replay -in through the time-warp engine (single pass; gap hours filled; -in may also name a single capture file)")
		replayWarp = flag.Float64("replay-warp", 0, "replay time-warp factor with -replay: 0 = as fast as possible, 1 = recorded speed, N = N× speed-up")
		follow     = flag.Bool("follow", false, "keep polling for newly published hours")
		pollEvery  = flag.Duration("poll", 5*time.Second, "poll interval with -follow")
		threshold  = flag.Int("threshold", 100, "TRW detection threshold (packets)")
		sampleSize = flag.Int("sample", 200, "post-detection sample size (packets)")
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
		replay:     *replayMode,
		replayWarp: *replayWarp,
		follow:     *follow,
		pollEvery:  *pollEvery,
		threshold:  *threshold,
		sampleSize: *sampleSize,
		shardID:    shardID,
		shardCount: shardCount,
	}
	if cfg.replay && cfg.follow {
		log.Fatal("-replay and -follow are mutually exclusive: replay is a single pass over the capture set")
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
	replay                bool
	replayWarp            float64
	follow                bool
	pollEvery             time.Duration
	threshold, sampleSize int
	shardID, shardCount   int
}

func run(cfg runConfig) error {
	sender := wire.NewSenderV2(cfg.connect, cfg.shardID, cfg.shardCount)
	defer sender.Close()

	var (
		sendErr  error
		curEpoch int64  // hour epoch stamped on queued frames
		encBuf   []byte // reused binary-encode scratch
	)
	trwCfg := trw.Default()
	trwCfg.DetectionThreshold = cfg.threshold
	trwCfg.SampleSize = cfg.sampleSize
	sampler := pipeline.NewSampler(trwCfg, 0, func(e pipeline.SamplerEvent) {
		var sendStart time.Time
		if e.Trace != nil {
			sendStart = time.Now()
		}
		kind, data, err := pipeline.AppendEncodeEvent(encBuf[:0], e)
		if err != nil {
			sendErr = err
			return
		}
		encBuf = data[:0]
		// Queue copies into the coalesced batch; Barrier pushes it,
		// going idle through outages until the feed server acknowledges.
		if err := sender.Queue(kind, curEpoch, data); err != nil {
			sendErr = err
		}
		if e.Trace != nil {
			// The trace's sampler-side life ends at the send; the feed
			// server re-samples the same deterministic ID on receive.
			e.Trace.Span("wire", sendStart, sendStart, trace.Int("bytes", len(data)))
			trace.Default().Finish(e.Trace)
		}
	})

	if cfg.replay {
		// Replay mode: the time-warp engine reads the capture set (a
		// directory of hourly files or one multi-hour capture), fills gap
		// hours, and hands each hour here — the same shard filter, hour
		// barrier, and epoch convention as the polling path, so a replayed
		// cluster merges identically to a live one.
		var mine []packet.Packet
		rep := replay.New(replay.Config{
			Warp: cfg.replayWarp,
			Emit: func(pkts []packet.Packet, hour time.Time) error {
				curEpoch = hour.Add(time.Hour).Unix()
				mine = mine[:0]
				for i := range pkts {
					if trw.ShardIndex(pkts[i].SrcIP, cfg.shardCount) == cfg.shardID {
						mine = append(mine, pkts[i])
					}
				}
				sampler.ProcessHour(mine, hour.Add(time.Hour))
				if err := sender.Barrier(curEpoch, false); err != nil {
					sendErr = err
				}
				if sendErr != nil {
					return fmt.Errorf("ship events: %w", sendErr)
				}
				st := sampler.DetectorStats()
				fmt.Printf("%s replayed: %d packets total, %d scanners, %d samples\n",
					hour.Format("2006-01-02T15"), st.Processed, st.ScannersFound, st.SamplesEmitted)
				return nil
			},
		})
		err := rep.Replay(cfg.in)
		switch {
		case err == nil:
		case errors.Is(err, io.ErrUnexpectedEOF):
			// The hours before the tear already shipped; close out the run
			// on what the damaged capture could prove.
			fmt.Printf("warning: %v\n", err)
		default:
			return err
		}
		if rep.Hours() == 0 {
			return fmt.Errorf("no capture hours replayed from %s", cfg.in)
		}
		flushAt := rep.End()
		curEpoch = flushAt.Add(time.Hour).Unix()
		sampler.Flush(flushAt)
		if sendErr == nil {
			sendErr = sender.Barrier(curEpoch, true)
		}
		if sendErr != nil {
			return fmt.Errorf("ship events: %w", sendErr)
		}
		if summary := telemetry.Default().StageSummary(); summary != "" {
			fmt.Print(summary)
		}
		return nil
	}

	processed := map[time.Time]bool{}
	// One packet buffer for every hour: the sampler does not retain the
	// slice it is handed, so an hour only allocates when it outgrows
	// every hour before it.
	var pkts []packet.Packet
	for {
		hours, err := pcapio.ListHours(cfg.in)
		if err != nil {
			return err
		}
		newWork := false
		for _, hour := range hours {
			if processed[hour] {
				continue
			}
			curEpoch = hour.Add(time.Hour).Unix()
			if pkts, err = processHour(sampler, cfg, hour, pkts[:0]); err != nil {
				return err
			}
			// Hour barrier: this shard has emitted everything for the
			// hour; the aggregator can close it once every shard says so.
			if err := sender.Barrier(curEpoch, false); err != nil {
				sendErr = err
			}
			if sendErr != nil {
				return fmt.Errorf("ship events: %w", sendErr)
			}
			processed[hour] = true
			newWork = true
			st := sampler.DetectorStats()
			fmt.Printf("%s processed: %d packets total, %d scanners, %d samples\n",
				pcapio.HourFileName(hour), st.Processed, st.ScannersFound, st.SamplesEmitted)
		}
		if !cfg.follow {
			break
		}
		if !newWork {
			time.Sleep(cfg.pollEvery)
		}
	}

	if len(processed) == 0 {
		return fmt.Errorf("no capture hours found in %s", cfg.in)
	}
	// End of input: close out all live flows. The flush events belong to
	// the pseudo-hour after the last capture (distinct epoch, so its
	// barrier cannot collide with the last real hour's).
	var last time.Time
	for hour := range processed {
		if hour.After(last) {
			last = hour
		}
	}
	flushAt := last.Add(time.Hour)
	curEpoch = flushAt.Add(time.Hour).Unix()
	sampler.Flush(flushAt)
	if sendErr == nil {
		sendErr = sender.Barrier(curEpoch, true)
	}
	if sendErr != nil {
		return fmt.Errorf("ship events: %w", sendErr)
	}
	if summary := telemetry.Default().StageSummary(); summary != "" {
		fmt.Print(summary)
	}
	return nil
}

// processHour reads one hour's capture into pkts (handed in empty),
// runs it through the sampler and returns the buffer for the next hour.
func processHour(sampler *pipeline.Sampler, cfg runConfig, hour time.Time, pkts []packet.Packet) ([]packet.Packet, error) {
	hr, err := pcapio.OpenHour(cfg.in, hour)
	if err != nil {
		return pkts, err
	}
	defer hr.Close()
	var p packet.Packet
	for {
		err := hr.Next(&p)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return pkts, err
		}
		// Shard ownership: keep only this node's hash partition of the
		// source space, so the cluster-wide union of events is exactly
		// the single-node event set.
		if trw.ShardIndex(p.SrcIP, cfg.shardCount) != cfg.shardID {
			continue
		}
		pkts = append(pkts, p)
	}
	sampler.ProcessHour(pkts, hour.Add(time.Hour))
	return pkts, nil
}
