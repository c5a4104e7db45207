// Cross-package equivalence proof for the distributed telescope: N ≥ 1
// ingest nodes running the shipped node half, each owning one hash
// partition of the source space and shipping events over the wire (binary
// payloads, batched writes, hour barriers, forced reconnects), must
// produce a feed byte-identical to pipeline.Local over the same packets
// once the shipped receiver merges their streams.
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

// runLocal is the reference topology, the one exiotd -simulate ships:
// pipeline.Local over the same hours.
func runLocal(w *simnet.World, hours [][]packet.Packet) *pipeline.Server {
	local := pipeline.NewLocal(pipeline.DefaultLocalConfig(), w, w.Registry(), nil)
	for h, pkts := range hours {
		local.ProcessHour(pkts, w.Start().Add(time.Duration(h)*time.Hour))
	}
	local.Finish(w.Start().Add(time.Duration(len(hours)) * time.Hour))
	return local.Server()
}

// flakyLink is a node's wire connection that drops on a seeded coin flip
// before and after every barrier: the next flush redials and replays the
// whole batch, which the aggregator must dedup by sequence.
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

// runCluster runs the shipped split shape: `nodes` concurrent
// pipeline.Shippers (flowsampler -shard i/nodes), each over a real TCP
// connection that drops at seeded points, into the shipped receiver (the
// BackHalf behind its merge, as in exiotd -shards nodes). seed varies the
// reconnect stagger across trials.
func runCluster(t *testing.T, w *simnet.World, hours [][]packet.Packet, nodes int, seed int64) *pipeline.Server {
	t.Helper()
	back, err := pipeline.NewBackHalf(pipeline.DefaultLocalConfig(), w, w.Registry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	agg := back.Receive(nodes)
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
			sender := wire.NewSenderV2(recv.Addr(), node, nodes)
			defer sender.Close()
			link := flakyLink{sender, rand.New(rand.NewSource(seed + int64(node)))}
			ship := pipeline.NewShipper(trw.Default(), node, nodes, link)
			for h, pkts := range hours {
				if err := ship.ProcessHour(pkts, w.Start().Add(time.Duration(h)*time.Hour)); err != nil {
					t.Errorf("node %d: %v", node, err)
					return
				}
			}
			if err := ship.Finish(w.Start().Add(time.Duration(len(hours)) * time.Hour)); err != nil {
				t.Errorf("node %d: %v", node, err)
			}
		}(node)
	}
	wg.Wait()
	// A barrier returns once acked, after the receiver's handler ran the
	// merge it completed: every node's final barrier is back, so every
	// hour has merged.
	if n := agg.PendingHours(); n != 0 {
		t.Fatalf("cluster merge incomplete: %d hours still pending", n)
	}
	return back.Server()
}

// TestClusterFeedEquivalence is the distributed telescope's headline
// proof: a sharded deployment — real TCP, binary frames, shuffled
// per-node progress, forced reconnects — produces a feed export, traffic
// table, and lifetime counters byte-identical to pipeline.Local over the
// same packet set. One shard is the unsharded split deployment
// (flowsampler → exiotd); three is a cluster.
func TestClusterFeedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hour cluster run")
	}
	const hours = 3
	w, pergen := clusterWorldHours(4242, hours)
	base := runLocal(w, pergen)
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
