package main

import (
	"sync"
	"testing"
	"time"

	"exiot/internal/pcapio"
	"exiot/internal/pipeline"
	"exiot/internal/simnet"
	"exiot/internal/wire"
)

// writeTestCaptures synthesizes a few hours of telescope captures.
func writeTestCaptures(t *testing.T, dir string, hours int) {
	t.Helper()
	cfg := simnet.DefaultConfig(21)
	cfg.NumInfected = 50
	cfg.NumNonIoT = 10
	cfg.NumMisconfig = 5
	cfg.NumBackscat = 2
	cfg.MaxPacketsPerHostHour = 600
	w := simnet.NewWorld(cfg)
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
}

// TestRunShipsEventsOverWire runs the default unsharded node — shard 0
// of 1 — and checks every event kind crosses the wire and every hour
// (plus the final flush pseudo-hour) closes with a barrier.
func TestRunShipsEventsOverWire(t *testing.T) {
	dir := t.TempDir()
	const hours = 3
	writeTestCaptures(t, dir, hours)

	var mu sync.Mutex
	counts := map[wire.Kind]int{}
	recv, err := wire.NewReceiver("127.0.0.1:0", func(f wire.Frame) {
		mu.Lock()
		defer mu.Unlock()
		counts[f.Kind]++
		if f.ShardID != 0 || f.ShardCount != 1 {
			t.Errorf("frame tagged shard %d/%d, want 0/1", f.ShardID, f.ShardCount)
		}
		if f.Kind == wire.KindHourEnd {
			return
		}
		if _, err := pipeline.DecodeEvent(f); err != nil {
			t.Errorf("undecodable frame: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	cfg := runConfig{in: dir, connect: recv.Addr(), pollEvery: time.Second,
		threshold: 100, sampleSize: 200, shardCount: 1}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if counts[wire.KindReport] == 0 {
		t.Error("no per-second reports shipped")
	}
	if counts[wire.KindSample] == 0 {
		t.Error("no sampled flows shipped")
	}
	if counts[wire.KindFlowEnd] == 0 {
		t.Error("no flow ends shipped (final flush must close flows)")
	}
	if counts[wire.KindHourEnd] != hours+1 {
		t.Errorf("%d hour barriers, want %d (one per hour + final)", counts[wire.KindHourEnd], hours+1)
	}
}

// TestRunShardedSpeaksV2 runs three shard nodes over one capture set and
// checks the framing: every frame carries shard tags, every event
// decodes, and each node closes each hour (plus the final flush
// pseudo-hour) with a barrier.
func TestRunShardedSpeaksV2(t *testing.T) {
	dir := t.TempDir()
	const hours, nodes = 2, 3
	writeTestCaptures(t, dir, hours)

	var mu sync.Mutex
	barriers := map[uint16]int{}
	finals := map[uint16]int{}
	events := 0
	recv, err := wire.NewReceiver("127.0.0.1:0", func(f wire.Frame) {
		mu.Lock()
		defer mu.Unlock()
		if f.Version != wire.Version2 || f.ShardCount != nodes {
			t.Errorf("frame without shard tags: %+v", f)
			return
		}
		if f.Kind == wire.KindHourEnd {
			barriers[f.ShardID]++
			if f.Flags&wire.FlagFinal != 0 {
				finals[f.ShardID]++
			}
			return
		}
		if _, err := pipeline.DecodeEvent(f); err != nil {
			t.Errorf("undecodable frame: %v", err)
			return
		}
		events++
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	for node := 0; node < nodes; node++ {
		cfg := runConfig{in: dir, connect: recv.Addr(), pollEvery: time.Second,
			threshold: 100, sampleSize: 200,
			shardID: node, shardCount: nodes}
		if err := run(cfg); err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if events == 0 {
		t.Error("no events shipped")
	}
	for node := uint16(0); node < nodes; node++ {
		if barriers[node] != hours+1 {
			t.Errorf("node %d sent %d barriers, want %d (one per hour + final)", node, barriers[node], hours+1)
		}
		if finals[node] != 1 {
			t.Errorf("node %d sent %d final barriers, want 1", node, finals[node])
		}
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
	cfg := runConfig{in: t.TempDir(), connect: recv.Addr(), pollEvery: time.Second,
		threshold: 100, sampleSize: 200, shardCount: 1}
	if err := run(cfg); err == nil {
		t.Error("empty capture dir accepted")
	}
}

func TestRunMissingDir(t *testing.T) {
	cfg := runConfig{in: "/nonexistent/captures", connect: "127.0.0.1:1", pollEvery: time.Second,
		threshold: 100, sampleSize: 200, shardCount: 1}
	if err := run(cfg); err == nil {
		t.Error("missing dir accepted")
	}
}
