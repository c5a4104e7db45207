package scenario

import (
	"hash/fnv"
	"reflect"
	"runtime"
	"testing"
	"time"

	"exiot/internal/pipeline"
	"exiot/internal/telemetry"
	"exiot/internal/trw"
	"exiot/internal/wire"
)

// testHours shortens each scenario's span so the determinism matrix
// (every scenario × two runs, × one sampler vs four partitions) stays
// test-sized
// while still crossing hour boundaries, gap expiries, and (for the
// diurnal cycle) a full on/off/on transition.
func testHours(sc Scenario) int {
	if sc.Hours > 26 {
		return 26
	}
	if sc.Hours > 7 {
		return 7
	}
	return sc.Hours
}

// stripTiming zeroes the wall-clock field so Results compare by content.
func stripTiming(r Result) Result {
	r.ElapsedNs = 0
	return r
}

// TestScenarioDeterminism replays every scenario twice from the same
// seed: ground-truth labels, the canonical detector event stream
// (compared by digest), and the scored result must be identical.
func TestScenarioDeterminism(t *testing.T) {
	for _, sc := range Suite() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			hours := testHours(sc)
			r1, d1, truth1 := RunTap(sc, 1234, hours)
			r2, d2, truth2 := RunTap(sc, 1234, hours)
			if !reflect.DeepEqual(truth1, truth2) {
				t.Error("ground-truth labels differ between identical-seed runs")
			}
			if d1 != d2 {
				t.Errorf("detector event streams differ: digest %x vs %x", d1, d2)
			}
			if stripTiming(r1) != stripTiming(r2) {
				t.Errorf("scored results differ:\n run1: %+v\n run2: %+v", r1, r2)
			}
			if len(truth1) == 0 {
				t.Error("scenario injected no hosts")
			}
			if r1.Packets == 0 {
				t.Error("scenario generated no packets")
			}
		})
	}
}

// mergeLink stands in for one node's wire connection: it numbers the
// node's frames the way wire.Sender does and hands each straight to the
// Aggregator, so a partitioned run needs no TCP.
type mergeLink struct {
	agg          *pipeline.Aggregator
	shard, count int
	seq          uint64
}

func (l *mergeLink) Queue(kind wire.Kind, epoch int64, payload []byte) error {
	return l.ingest(kind, epoch, 0, payload)
}

func (l *mergeLink) Barrier(epoch int64, final bool) error {
	var flags uint8
	if final {
		flags = wire.FlagFinal
	}
	return l.ingest(wire.KindHourEnd, epoch, flags, nil)
}

func (l *mergeLink) ingest(kind wire.Kind, epoch int64, flags uint8, payload []byte) error {
	l.seq++
	return l.agg.Ingest(wire.Frame{
		Seq: l.seq, Kind: kind, Payload: payload, Version: wire.Version2, Flags: flags,
		ShardID: uint16(l.shard), ShardCount: uint16(l.count), HourEpoch: epoch,
	})
}

// partitionedDigest runs a scenario the way an n-node cluster does and
// returns RunTap's digest over the merged stream: n pipeline.Shippers —
// the `flowsampler -shard i/n` node half — each fed every hour, ship
// through in-process links, node after node, hour by hour, into one
// Aggregator.
func partitionedDigest(t *testing.T, sc Scenario, seed int64, hours, n int) uint64 {
	t.Helper()
	w, _ := sc.Setup(seed, hours)
	digest := fnv.New64a()
	final := false
	agg := pipeline.NewAggregator(pipeline.AggregatorConfig{
		Shards: n,
		Health: telemetry.NewHealth(),
		Emit: func(e pipeline.SamplerEvent, _ time.Time) {
			kind, data, err := pipeline.AppendEncodeEvent(nil, e)
			if err != nil {
				t.Fatal(err)
			}
			digest.Write([]byte{byte(kind)})
			digest.Write(data)
		},
		OnHourMerged: func(_ time.Time, f bool) { final = f },
	})
	nodes := make([]*pipeline.Shipper, n)
	for i := range nodes {
		nodes[i] = pipeline.NewShipper(trw.Default(), i, n, &mergeLink{agg: agg, shard: i, count: n})
	}
	for h := 0; h < hours; h++ {
		hour := w.Start().Add(time.Duration(h) * time.Hour)
		pkts := w.GenerateHour(hour)
		for _, node := range nodes {
			if err := node.ProcessHour(pkts, hour); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, node := range nodes {
		if err := node.Finish(w.Start().Add(time.Duration(hours) * time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	if !final || agg.PendingHours() != 0 {
		t.Fatalf("merge incomplete: final=%v, %d hours pending", final, agg.PendingHours())
	}
	return digest.Sum64()
}

// TestScenarioPartitionInvariance replays every scenario as one sampler
// generating at GOMAXPROCS 1 and as a 4-partition cluster merge
// generating at GOMAXPROCS 4: the merged stream must be the byte-for-byte
// identical canonical event stream, so the scored accuracy cannot depend
// on how the telescope is partitioned or how many goroutines generate it.
func TestScenarioPartitionInvariance(t *testing.T) {
	for _, sc := range Suite() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			hours := testHours(sc)
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			_, d1, _ := RunTap(sc, 99, hours)
			runtime.GOMAXPROCS(4)
			if d4 := partitionedDigest(t, sc, 99, hours, 4); d1 != d4 {
				t.Errorf("event stream differs between 1 sampler and 4 partitions: digest %x vs %x", d1, d4)
			}
		})
	}
}

// TestScenarioSeedSensitivity guards against an accidentally ignored
// seed: different seeds must build different worlds.
func TestScenarioSeedSensitivity(t *testing.T) {
	sc, ok := ByName("stealth-subthreshold")
	if !ok {
		t.Fatal("suite is missing stealth-subthreshold")
	}
	_, d1, truth1 := RunTap(sc, 1, 3)
	_, d2, truth2 := RunTap(sc, 2, 3)
	if reflect.DeepEqual(truth1, truth2) {
		t.Error("different seeds produced identical ground truth")
	}
	if d1 == d2 {
		t.Error("different seeds produced identical event streams")
	}
}

// TestScenarioSemantics pins each scenario's designed outcome: the
// stealth cohort stays invisible to the TRW θ, the botnet waves and
// diurnal cohorts are caught, and the backscatter storm feeds nothing.
func TestScenarioSemantics(t *testing.T) {
	if testing.Short() {
		t.Skip("full-span scenario runs")
	}
	for _, sc := range Suite() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			r := Run(sc, 42, 0)
			switch sc.Name {
			case "stealth-subthreshold":
				if r.InjectedRecall != 0 {
					t.Errorf("stealth cohort detected (recall %.3f): sessions are not sub-threshold", r.InjectedRecall)
				}
			case "botnet-growth-wave", "diurnal-cycle":
				if r.InjectedRecall < 0.9 {
					t.Errorf("injected recall %.3f, want ≥0.9", r.InjectedRecall)
				}
			case "backscatter-storm":
				if r.InjectedFalseFed != 0 {
					t.Errorf("%d backscatter sources leaked into the feed", r.InjectedFalseFed)
				}
			}
			if r.InjectedFalseFed == 0 && r.ScanPrecision < 0.999 && r.Records > 0 {
				t.Errorf("scan precision %.3f: background false positives", r.ScanPrecision)
			}
		})
	}
}
