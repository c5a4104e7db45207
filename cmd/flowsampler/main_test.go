package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"exiot/internal/feedserve"
	"exiot/internal/packet"
	"exiot/internal/pcapio"
	"exiot/internal/pipeline"
	"exiot/internal/replay"
	"exiot/internal/simnet"
	"exiot/internal/wire"
)

// testWorld is the simulated Internet behind the test captures; every
// pipeline probing it gets its own same-seed copy.
func testWorld() *simnet.World {
	cfg := simnet.DefaultConfig(21)
	cfg.NumInfected = 50
	cfg.NumNonIoT = 10
	cfg.NumMisconfig = 5
	cfg.NumBackscat = 2
	cfg.MaxPacketsPerHostHour = 600
	return simnet.NewWorld(cfg)
}

// writeTestCaptures synthesizes a few hours of telescope captures and
// returns their first hour.
func writeTestCaptures(t *testing.T, dir string, hours int) time.Time {
	t.Helper()
	w := testWorld()
	for h := 0; h < hours; h++ {
		hour := w.Start().Add(time.Duration(h) * time.Hour)
		hw, err := pcapio.CreateHour(dir, hour)
		if err != nil {
			t.Fatal(err)
		}
		pkts := w.GenerateHour(hour)
		for i := range pkts {
			if err := hw.WritePacket(&pkts[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := hw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return w.Start()
}

// nodeConfig runs shard id of n over in, shipping to addr.
func nodeConfig(in, addr string, id, n int) runConfig {
	return runConfig{in: in, connect: addr, pollEvery: time.Second,
		threshold: 100, sampleSize: 200, shardID: id, shardCount: n}
}

// frameKey is one (shard, hour epoch, kind) cell of a frameLog.
type frameKey struct {
	shard uint16
	epoch int64
	kind  wire.Kind
}

// frameLog counts the frames one receiver saw.
type frameLog struct {
	mu     sync.Mutex
	n      map[frameKey]int
	finals map[uint16]int // final barriers per shard
}

// count sums the frames of kind in the cells keep accepts (nil: all).
func (l *frameLog) count(kind wire.Kind, keep func(frameKey) bool) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	sum := 0
	for k, n := range l.n {
		if k.kind == kind && (keep == nil || keep(k)) {
			sum += n
		}
	}
	return sum
}

func inHour(epoch int64) func(frameKey) bool {
	return func(k frameKey) bool { return k.epoch == epoch }
}

// receive serves the shipped receiver — the back half behind a merge of
// shards streams, over a same-seed world — and logs every frame. The
// merge rejects, and the test fails on, frames with the wrong shard tags
// or payloads that do not decode.
func receive(t *testing.T, shards int) (*pipeline.BackHalf, *wire.Receiver, *frameLog) {
	t.Helper()
	w := testWorld()
	back, err := pipeline.NewBackHalf(pipeline.DefaultLocalConfig(), w, w.Registry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	agg := back.Receive(shards)
	log := &frameLog{n: map[frameKey]int{}, finals: map[uint16]int{}}
	recv, err := wire.NewReceiver("127.0.0.1:0", func(f wire.Frame) {
		log.mu.Lock()
		log.n[frameKey{f.ShardID, f.HourEpoch, f.Kind}]++
		if f.Kind == wire.KindHourEnd && f.Flags&wire.FlagFinal != 0 {
			log.finals[f.ShardID]++
		}
		log.mu.Unlock()
		if err := agg.Ingest(f); err != nil {
			t.Errorf("ingest: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return back, recv, log
}

// TestRunShipsEventsOverWire runs the default unsharded node — shard 0
// of 1 — and checks every event kind crosses the wire and every hour
// (plus the final flush pseudo-hour) closes with a barrier.
func TestRunShipsEventsOverWire(t *testing.T) {
	dir := t.TempDir()
	const hours = 3
	writeTestCaptures(t, dir, hours)
	_, recv, frames := receive(t, 1)
	defer recv.Close()
	if err := run(nodeConfig(dir, recv.Addr(), 0, 1)); err != nil {
		t.Fatal(err)
	}
	recv.Close()
	for kind, what := range map[wire.Kind]string{wire.KindReport: "per-second reports",
		wire.KindSample: "sampled flows", wire.KindFlowEnd: "flow ends"} {
		if frames.count(kind, nil) == 0 {
			t.Errorf("no %s shipped", what)
		}
	}
	if n := frames.count(wire.KindHourEnd, nil); n != hours+1 || frames.finals[0] != 1 {
		t.Errorf("%d hour barriers (%d final), want %d (one per hour + final)", n, frames.finals[0], hours+1)
	}
}

// TestRunShardedSpeaksV2 runs three shard nodes over one capture set into
// a 3-shard merge: every frame carries shard tags and decodes, and each
// node closes each hour (plus the final flush pseudo-hour) with a barrier.
func TestRunShardedSpeaksV2(t *testing.T) {
	dir := t.TempDir()
	const hours, nodes = 2, 3
	writeTestCaptures(t, dir, hours)
	_, recv, frames := receive(t, nodes)
	defer recv.Close()
	for node := 0; node < nodes; node++ {
		if err := run(nodeConfig(dir, recv.Addr(), node, nodes)); err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
	}
	recv.Close()
	if frames.count(wire.KindReport, nil) == 0 {
		t.Error("no events shipped")
	}
	for node := uint16(0); node < nodes; node++ {
		n := frames.count(wire.KindHourEnd, func(k frameKey) bool { return k.shard == node })
		if n != hours+1 || frames.finals[node] != 1 {
			t.Errorf("node %d sent %d barriers (%d final), want %d (one per hour + final)", node, n, frames.finals[node], hours+1)
		}
	}
}

// TestRunGapHourMatchesLocal: with a middle hour never published, the
// node still ships that hour — empty, closed by its barrier — so the
// detector sweeps it, and the receiver's feed is byte-identical to
// exiotd -replay's (pipeline.Local over the same directory).
func TestRunGapHourMatchesLocal(t *testing.T) {
	dir := t.TempDir()
	const hours = 4
	start := writeTestCaptures(t, dir, hours)
	gap := start.Add(2 * time.Hour)
	if err := os.Remove(filepath.Join(dir, pcapio.HourFileName(gap))); err != nil {
		t.Fatal(err)
	}
	back, recv, frames := receive(t, 1)
	defer recv.Close()
	if err := run(nodeConfig(dir, recv.Addr(), 0, 1)); err != nil {
		t.Fatal(err)
	}
	recv.Close()
	gapHour := inHour(gap.Add(time.Hour).Unix())
	if frames.count(wire.KindHourEnd, gapHour) != 1 || frames.count(wire.KindReport, gapHour) != 0 {
		t.Errorf("gap hour %s: %d barriers and %d reports, want 1 and 0", gap,
			frames.count(wire.KindHourEnd, gapHour), frames.count(wire.KindReport, gapHour))
	}
	if n := frames.count(wire.KindHourEnd, nil); n != hours+1 {
		t.Errorf("%d barriers, want %d (every hour, the gap included, + final)", n, hours+1)
	}

	w := testWorld()
	local := pipeline.NewLocal(pipeline.DefaultLocalConfig(), w, w.Registry(), nil)
	rep := replay.New(replay.Config{Emit: func(pkts []packet.Packet, hour time.Time) error {
		local.ProcessHour(pkts, hour)
		return nil
	}})
	if err := rep.ReplayDir(dir); err != nil {
		t.Fatal(err)
	}
	local.Finish(rep.End())

	export := func(s *pipeline.Server) []byte {
		fixed := start.Add(1000 * time.Hour)
		return s.NewFeedCache(feedserve.Config{Clock: func() time.Time { return fixed }}).Current().ExportNDJSON()
	}
	split, ref := back.Server(), local.Server()
	if ref.Counters().RecordsCreated == 0 {
		t.Fatal("Local produced no feed records")
	}
	if !bytes.Equal(export(split), export(ref)) {
		t.Error("split feed export is not byte-identical to Local's over the same directory")
	}
	if sc, rc := split.Counters(), ref.Counters(); sc != rc {
		t.Errorf("counters differ:\n split: %+v\n local: %+v", sc, rc)
	}
	if st, rt := split.Traffic(), ref.Traffic(); !reflect.DeepEqual(st, rt) {
		t.Errorf("traffic tables differ: split %d hours, local %d hours", len(st), len(rt))
	}
}

// TestRunTornCapture: a capture cut short ships the hours before it and
// its own good prefix, then ends the input with the final barrier.
func TestRunTornCapture(t *testing.T) {
	dir := t.TempDir()
	const hours = 3
	start := writeTestCaptures(t, dir, hours)
	last := filepath.Join(dir, pcapio.HourFileName(start.Add((hours-1)*time.Hour)))
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	_, recv, frames := receive(t, 1)
	defer recv.Close()
	if err := run(nodeConfig(dir, recv.Addr(), 0, 1)); err != nil {
		t.Fatalf("torn capture failed the run: %v", err)
	}
	recv.Close()
	for h := 1; h <= hours; h++ {
		hour := inHour(start.Add(time.Duration(h) * time.Hour).Unix())
		if frames.count(wire.KindHourEnd, hour) != 1 || frames.count(wire.KindReport, hour) == 0 {
			t.Errorf("hour %d not shipped and closed", h-1)
		}
	}
	if frames.count(wire.KindHourEnd, inHour(start.Add((hours+1)*time.Hour).Unix())) != 1 || frames.finals[0] != 1 {
		t.Error("no final barrier after the torn hour")
	}
}

// TestRunSingleFile: -in may name one capture file.
func TestRunSingleFile(t *testing.T) {
	dir := t.TempDir()
	start := writeTestCaptures(t, dir, 1)
	_, recv, frames := receive(t, 1)
	defer recv.Close()
	if err := run(nodeConfig(filepath.Join(dir, pcapio.HourFileName(start)), recv.Addr(), 0, 1)); err != nil {
		t.Fatal(err)
	}
	recv.Close()
	if frames.count(wire.KindHourEnd, nil) != 2 || frames.count(wire.KindReport, inHour(start.Add(time.Hour).Unix())) == 0 {
		t.Error("one capture file did not ship its hour and the final barrier")
	}
}

func TestParseShard(t *testing.T) {
	if id, n, err := parseShard("2/5"); err != nil || id != 2 || n != 5 {
		t.Errorf("parseShard(2/5) = %d, %d, %v", id, n, err)
	}
	if id, n, err := parseShard("0/1"); err != nil || id != 0 || n != 1 {
		t.Errorf("parseShard(0/1) = %d, %d, %v", id, n, err)
	}
	for _, bad := range []string{"", "5/5", "-1/3", "x/3", "2", "2/", "/3", "2/0"} {
		if _, _, err := parseShard(bad); err == nil {
			t.Errorf("parseShard(%q) accepted", bad)
		}
	}
}

func TestRunEmptyDir(t *testing.T) {
	recv, err := wire.NewReceiver("127.0.0.1:0", func(wire.Frame) {})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	if err := run(nodeConfig(t.TempDir(), recv.Addr(), 0, 1)); err == nil {
		t.Error("empty capture dir accepted")
	}
}

func TestRunMissingDir(t *testing.T) {
	if err := run(nodeConfig("/nonexistent/captures", "127.0.0.1:1", 0, 1)); err == nil {
		t.Error("missing dir accepted")
	}
}
