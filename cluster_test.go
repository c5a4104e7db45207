// Cross-package equivalence proof for the distributed telescope: N ≥ 1
// flowsampler-style ingest nodes, each owning one hash partition of the
// source space and shipping events over the wire (binary payloads,
// batched writes, hour barriers, forced reconnects), must produce a feed
// byte-identical to a single-node run over the same packets once the
// receiver-side aggregator merges their streams.
package exiot_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"exiot/internal/feedserve"
	"exiot/internal/packet"
	"exiot/internal/pipeline"
	"exiot/internal/simnet"
	"exiot/internal/telemetry"
	"exiot/internal/trw"
	"exiot/internal/wire"
)

// clusterWorldHours generates the shared packet set every topology
// consumes: the same world, the same hours.
func clusterWorldHours(seed int64, hours int) (*simnet.World, [][]packet.Packet) {
	cfg := simnet.DefaultConfig(seed)
	cfg.NumInfected = 120
	cfg.NumNonIoT = 25
	cfg.NumMisconfig = 12
	cfg.NumBackscat = 5
	cfg.MaxPacketsPerHostHour = 600
	w := simnet.NewWorld(cfg)
	pergen := make([][]packet.Packet, hours)
	for h := range pergen {
		pergen[h] = w.GenerateHour(w.Start().Add(time.Duration(h) * time.Hour))
	}
	return w, pergen
}

// runSingleNode is the reference topology: one sampler feeding one feed
// server directly, with the same hour-end availability stamps and tick
// cadence the cluster's aggregator applies.
func runSingleNode(w *simnet.World, hours [][]packet.Packet) *pipeline.Server {
	lcfg := pipeline.DefaultLocalConfig()
	delay := lcfg.CollectionDelay + lcfg.ProcessingDelay
	srv := pipeline.NewServer(pipeline.DefaultServerConfig(), w, w.Registry(), nil)
	var at time.Time
	sampler := pipeline.NewSampler(trw.Default(), 0, func(e pipeline.SamplerEvent) {
		srv.HandleEvent(e, at)
	})
	for h, pkts := range hours {
		hourEnd := w.Start().Add(time.Duration(h+1) * time.Hour)
		at = hourEnd.Add(delay)
		sampler.ProcessHour(pkts, hourEnd)
		srv.Tick(at)
	}
	// End of input: the flush events belong to the pseudo-hour after the
	// last capture — the same epoch convention flowsampler ships.
	flushAt := w.Start().Add(time.Duration(len(hours)) * time.Hour)
	at = flushAt.Add(time.Hour).Add(delay)
	sampler.Flush(flushAt)
	srv.FlushScans(at)
	srv.Tick(at)
	return srv
}

// runCluster runs `nodes` concurrent ingest nodes against one in-process
// feed server. Each node keeps only its ShardIndex partition, ships over
// a real TCP connection, and drops its connection at staggered points so
// reconnect replays hit the aggregator's dedup. seed varies the reconnect
// stagger across trials.
func runCluster(t *testing.T, w *simnet.World, hours [][]packet.Packet, nodes int, seed int64) *pipeline.Server {
	t.Helper()
	lcfg := pipeline.DefaultLocalConfig()
	srv := pipeline.NewServer(pipeline.DefaultServerConfig(), w, w.Registry(), nil)

	merged := make(chan struct{})
	agg := pipeline.NewAggregator(pipeline.AggregatorConfig{
		Shards:          nodes,
		CollectionDelay: lcfg.CollectionDelay,
		ProcessingDelay: lcfg.ProcessingDelay,
		Emit: func(e pipeline.SamplerEvent, at time.Time) {
			srv.HandleEvent(e, at)
		},
		OnHourMerged: func(_, at time.Time, final bool) {
			if final {
				srv.FlushScans(at)
			}
			srv.Tick(at)
			if final {
				close(merged)
			}
		},
		Health: telemetry.NewHealth(),
	})
	recv, err := wire.NewReceiver("127.0.0.1:0", func(f wire.Frame) {
		if err := agg.Ingest(f); err != nil {
			t.Errorf("cluster ingest: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	var wg sync.WaitGroup
	for node := 0; node < nodes; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(node)))
			sender := wire.NewSenderV2(recv.Addr(), node, nodes)
			defer sender.Close()
			var (
				epoch   int64
				encBuf  []byte
				sendErr error
			)
			sampler := pipeline.NewSampler(trw.Default(), 0, func(e pipeline.SamplerEvent) {
				kind, data, err := pipeline.AppendEncodeEvent(encBuf[:0], e)
				if err != nil {
					sendErr = err
					return
				}
				encBuf = data[:0]
				if err := sender.Queue(kind, epoch, data); err != nil {
					sendErr = err
				}
			})
			for h, pkts := range hours {
				hourEnd := w.Start().Add(time.Duration(h+1) * time.Hour)
				epoch = hourEnd.Unix()
				var mine []packet.Packet
				for i := range pkts {
					if trw.ShardIndex(pkts[i].SrcIP, nodes) == node {
						mine = append(mine, pkts[i])
					}
				}
				sampler.ProcessHour(mine, hourEnd)
				// Drop the connection mid-batch on some hours: the next
				// flush redials and replays the whole batch, which the
				// aggregator must dedup by sequence.
				if rng.Intn(2) == 0 {
					sender.ResetConn()
				}
				if err := sender.Barrier(epoch, false); err != nil {
					sendErr = err
				}
				if rng.Intn(2) == 0 {
					sender.ResetConn()
				}
			}
			flushAt := w.Start().Add(time.Duration(len(hours)) * time.Hour)
			epoch = flushAt.Add(time.Hour).Unix()
			sampler.Flush(flushAt)
			if err := sender.Barrier(epoch, true); err != nil {
				sendErr = err
			}
			if sendErr != nil {
				t.Errorf("node %d: ship events: %v", node, sendErr)
			}
		}(node)
	}
	wg.Wait()

	select {
	case <-merged:
	case <-time.After(60 * time.Second):
		t.Fatalf("cluster merge never completed: %d hours still pending", agg.PendingHours())
	}
	return srv
}

// TestClusterFeedEquivalence is the distributed telescope's headline
// proof: a sharded deployment — real TCP, binary frames, shuffled
// per-node progress, forced reconnects — produces a feed export, traffic
// table, and lifetime counters byte-identical to the single-node
// pipeline over the same packet set. One shard is the unsharded split
// deployment (flowsampler → exiotd); three is a cluster.
func TestClusterFeedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hour cluster run")
	}
	const hours = 3
	w, pergen := clusterWorldHours(4242, hours)
	base := runSingleNode(w, pergen)
	fixed := w.Start().Add(1000 * time.Hour)
	clock := func() time.Time { return fixed }
	baseSnap := base.NewFeedCache(feedserve.Config{Clock: clock}).Current()
	if baseSnap.Len() == 0 {
		t.Fatal("single-node run produced no feed records")
	}

	for _, nodes := range []int{1, 3} {
		clusterW, clusterGen := clusterWorldHours(4242, hours)
		clus := runCluster(t, clusterW, clusterGen, nodes, 99)
		clusSnap := clus.NewFeedCache(feedserve.Config{Clock: clock}).Current()
		if baseSnap.Len() != clusSnap.Len() {
			t.Fatalf("%d shards: feed size differs: cluster %d records, single-node %d", nodes, clusSnap.Len(), baseSnap.Len())
		}
		if !bytes.Equal(baseSnap.ExportNDJSON(), clusSnap.ExportNDJSON()) {
			t.Errorf("%d shards: cluster feed export is not byte-identical to the single-node export", nodes)
		}
		if bc, cc := base.Counters(), clus.Counters(); bc != cc {
			t.Errorf("%d shards: server counters differ:\n cluster:     %+v\n single-node: %+v", nodes, cc, bc)
		}
		if bt, ct := base.Traffic(), clus.Traffic(); !reflect.DeepEqual(bt, ct) {
			t.Errorf("%d shards: traffic tables differ: cluster %d hours, single-node %d hours", nodes, len(ct), len(bt))
		}
	}
}
