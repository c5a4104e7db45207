// Round-trip proof for the replay harness: capturing a simulated
// telescope's hours to pcap files and re-ingesting them through the
// replay engine at warp=0 must produce a feed export, traffic table,
// and lifetime counters byte-identical to live ingestion of the same
// packets. This is what makes replayed captures trustworthy evidence:
// nothing about detection or classification depends on whether the
// packets arrived from the wire or from disk.
package exiot_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"exiot/internal/feedserve"
	"exiot/internal/packet"
	"exiot/internal/pcapio"
	"exiot/internal/pipeline"
	"exiot/internal/replay"
	"exiot/internal/simnet"
)

// writeCaptureDir persists each generated hour as the hourly pcap.gz
// file a real telescope node publishes.
func writeCaptureDir(t *testing.T, dir string, w *simnet.World, hours [][]packet.Packet) {
	t.Helper()
	for h, pkts := range hours {
		hour := w.Start().Add(time.Duration(h) * time.Hour)
		hw, err := pcapio.CreateHour(dir, hour)
		if err != nil {
			t.Fatal(err)
		}
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

// replayLocal is exiotd -replay: pipeline.Local driven from a capture
// (directory or single file) by the replay engine at warp=0.
func replayLocal(t *testing.T, w *simnet.World, path string) *pipeline.Server {
	t.Helper()
	local := pipeline.NewLocal(pipeline.DefaultLocalConfig(), w, w.Registry(), nil)
	rep := replay.New(replay.Config{
		// warp=0: no pacing, and the engine must never consult a clock.
		Now:   func() time.Time { t.Error("replay consulted wall clock at warp=0"); return time.Time{} },
		Sleep: func(time.Duration) { t.Error("replay slept at warp=0") },
		Emit: func(pkts []packet.Packet, hour time.Time) error {
			local.ProcessHour(pkts, hour)
			return nil
		},
	})
	if err := rep.Replay(path); err != nil {
		t.Fatal(err)
	}
	local.Finish(rep.End())
	return local.Server()
}

// TestReplayFeedEquivalence is the replay harness's headline proof:
// write three simulated hours to disk as hourly pcap.gz captures,
// replay them at warp=0, and require the resulting feed to be
// byte-identical to live ingestion of the same packets.
func TestReplayFeedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hour replay run")
	}
	const hours = 3
	w, pergen := clusterWorldHours(7331, hours)
	live := runLocal(w, pergen)

	dir := t.TempDir()
	captureW, captureGen := clusterWorldHours(7331, hours)
	writeCaptureDir(t, dir, captureW, captureGen)
	replayed := replayLocal(t, captureW, dir)

	fixed := w.Start().Add(1000 * time.Hour)
	clock := func() time.Time { return fixed }
	liveSnap := live.NewFeedCache(feedserve.Config{Clock: clock}).Current()
	repSnap := replayed.NewFeedCache(feedserve.Config{Clock: clock}).Current()
	if liveSnap.Len() == 0 {
		t.Fatal("live run produced no feed records")
	}
	if liveSnap.Len() != repSnap.Len() {
		t.Fatalf("feed size differs: replay %d records, live %d", repSnap.Len(), liveSnap.Len())
	}
	if !bytes.Equal(liveSnap.ExportNDJSON(), repSnap.ExportNDJSON()) {
		t.Error("replayed feed export is not byte-identical to the live export")
	}

	if lc, rc := live.Counters(), replayed.Counters(); lc != rc {
		t.Errorf("server counters differ:\n replay: %+v\n live:   %+v", rc, lc)
	}
	if lt, rt := live.Traffic(), replayed.Traffic(); !reflect.DeepEqual(lt, rt) {
		t.Errorf("traffic tables differ: replay %d hours, live %d hours", len(rt), len(lt))
	}
}

// TestReplaySingleFileEquivalence repeats the proof for the one-file
// case: the same three hours concatenated into a single capture, with
// hour boundaries recovered from packet timestamps alone.
func TestReplaySingleFileEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hour replay run")
	}
	const hours = 3
	w, pergen := clusterWorldHours(7331, hours)
	live := runLocal(w, pergen)

	dir := t.TempDir()
	captureW, captureGen := clusterWorldHours(7331, hours)
	// One file spanning every hour (CreateHour names it after hour 0;
	// replay derives boundaries from timestamps, not the name).
	hw, err := pcapio.CreateHour(dir, captureW.Start())
	if err != nil {
		t.Fatal(err)
	}
	for _, pkts := range captureGen {
		for i := range pkts {
			if err := hw.WritePacket(&pkts[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := hw.Close(); err != nil {
		t.Fatal(err)
	}

	srv := replayLocal(t, captureW, dir+"/"+pcapio.HourFileName(captureW.Start()))

	fixed := w.Start().Add(1000 * time.Hour)
	clock := func() time.Time { return fixed }
	liveSnap := live.NewFeedCache(feedserve.Config{Clock: clock}).Current()
	repSnap := srv.NewFeedCache(feedserve.Config{Clock: clock}).Current()
	if !bytes.Equal(liveSnap.ExportNDJSON(), repSnap.ExportNDJSON()) {
		t.Error("single-file replay export differs from the live export")
	}
	if lc, rc := live.Counters(), srv.Counters(); lc != rc {
		t.Errorf("server counters differ:\n replay: %+v\n live:   %+v", rc, lc)
	}
	if lt, rt := live.Traffic(), srv.Traffic(); !reflect.DeepEqual(lt, rt) {
		t.Errorf("traffic tables differ: replay %d hours, live %d hours", len(rt), len(lt))
	}
}
