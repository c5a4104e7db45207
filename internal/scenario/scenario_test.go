package scenario

import (
	"hash/fnv"
	"reflect"
	"testing"
	"time"

	"exiot/internal/packet"
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
			r1, d1, truth1 := RunTap(sc, 1234, hours, 1)
			r2, d2, truth2 := RunTap(sc, 1234, hours, 1)
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

// partitionedDigest runs a scenario the way an n-node cluster does and
// returns RunTap's digest over the merged stream: n samplers each fed
// the trw.ShardIndex slice of every hour (the `flowsampler -shard i/n`
// filter), their events shipped as v2 wire frames with per-shard
// sequence numbers and a barrier closing every hour and the final flush,
// ingested shard after shard, hour by hour, into one Aggregator.
func partitionedDigest(t *testing.T, sc Scenario, seed int64, hours, n int) uint64 {
	t.Helper()
	w, _ := sc.Setup(seed, hours)
	encode := func(e pipeline.SamplerEvent) (wire.Kind, []byte) {
		kind, data, err := pipeline.AppendEncodeEvent(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		return kind, data
	}
	digest := fnv.New64a()
	final := false
	agg := pipeline.NewAggregator(pipeline.AggregatorConfig{
		Shards: n,
		Health: telemetry.NewHealth(),
		Emit: func(e pipeline.SamplerEvent, _ time.Time) {
			kind, data := encode(e)
			digest.Write([]byte{byte(kind)})
			digest.Write(data)
		},
		OnHourMerged: func(_, _ time.Time, f bool) { final = f },
	})
	var epoch int64
	seq := make([]uint64, n)
	ship := func(shard int, kind wire.Kind, flags uint8, payload []byte) {
		seq[shard]++
		if err := agg.Ingest(wire.Frame{
			Seq: seq[shard], Kind: kind, Payload: payload, Version: wire.Version2, Flags: flags,
			ShardID: uint16(shard), ShardCount: uint16(n), HourEpoch: epoch,
		}); err != nil {
			t.Fatal(err)
		}
	}
	samplers := make([]*pipeline.Sampler, n)
	for i := range samplers {
		samplers[i] = pipeline.NewSampler(trw.Default(), 0, func(e pipeline.SamplerEvent) {
			kind, payload := encode(e)
			ship(i, kind, 0, payload)
		})
	}
	mine := make([][]packet.Packet, n)
	for h := 0; h < hours; h++ {
		hourEnd := w.Start().Add(time.Duration(h+1) * time.Hour)
		epoch = hourEnd.Unix()
		for _, p := range w.GenerateHourWorkers(hourEnd.Add(-time.Hour), 4) {
			si := trw.ShardIndex(p.SrcIP, n)
			mine[si] = append(mine[si], p)
		}
		for i, s := range samplers {
			s.ProcessHour(mine[i], hourEnd)
			ship(i, wire.KindHourEnd, 0, nil)
			mine[i] = mine[i][:0]
		}
	}
	flushAt := w.Start().Add(time.Duration(hours) * time.Hour)
	epoch = flushAt.Add(time.Hour).Unix()
	for i, s := range samplers {
		s.Flush(flushAt)
		ship(i, wire.KindHourEnd, wire.FlagFinal, nil)
	}
	if !final || agg.PendingHours() != 0 {
		t.Fatalf("merge incomplete: final=%v, %d hours pending", final, agg.PendingHours())
	}
	return digest.Sum64()
}

// TestScenarioWorkerInvariance replays every scenario as one serial
// sampler and as a 4-partition cluster merge (with 4 generation workers):
// the merged stream must be the byte-for-byte identical canonical event
// stream, so the scored accuracy cannot depend on how the telescope is
// partitioned.
func TestScenarioWorkerInvariance(t *testing.T) {
	for _, sc := range Suite() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			hours := testHours(sc)
			_, d1, _ := RunTap(sc, 99, hours, 1)
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
	_, d1, truth1 := RunTap(sc, 1, 3, 1)
	_, d2, truth2 := RunTap(sc, 2, 3, 1)
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
			r := Run(sc, 42, 0, 1)
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
