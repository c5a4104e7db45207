package pipeline

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"exiot/internal/durable"
	"exiot/internal/simnet"
	"exiot/internal/trw"
	"exiot/internal/wire"
)

// testdata/wal_v1 is a state directory written by commit 987755c, the
// last one whose WAL and snapshots held JSON events: that commit's
// OpenDurable on an empty directory, then Append + HandleEvent (Tick at
// each hour's end) over five hours of walV1World's sampler stream — 24
// packets a sample, one per-second report in 120 kept — a forced
// snapshot mid-hour with three scanners buffered, one of them ended and
// detected again, and Close with no final snapshot. golden.json is what
// the same commit recovered from the directory it had written.
const (
	walV1Dir      = "testdata/wal_v1"
	walV1Segment  = "wal-0000000000000001.seg"
	walV1Snapshot = "snap-0000000000000060.snap"
	walV1Seed     = 221
)

// walV1World is the world the fixture's events were detected in; the
// server needs it to probe the recovered scanners.
func walV1World() *simnet.World {
	cfg := simnet.DefaultConfig(walV1Seed)
	cfg.NumInfected = 60
	cfg.NumNonIoT = 6
	cfg.NumResearch = 1
	cfg.NumMisconfig = 2
	cfg.NumBackscat = 1
	cfg.Days = 1
	cfg.MaxPacketsPerHostHour = 600
	return simnet.NewWorld(cfg)
}

type walV1Golden struct {
	Events         uint64   `json:"events"`
	SnapshotSeq    uint64   `json:"snapshot_seq"`
	ReplayedEvents int      `json:"replayed_events"`
	ExportSHA256   string   `json:"export_sha256"`
	Counters       Counters `json:"counters"`
	Scanned        int64    `json:"scanned"`
	Tagged         int64    `json:"tagged"`
	ScanBuffer     int      `json:"scan_buffer"`
	ParkedEnds     int      `json:"parked_ends"`
}

// copyWALV1 copies the fixture's segment and snapshot into a fresh
// directory.
func copyWALV1(tb testing.TB) string {
	tb.Helper()
	dir := tb.TempDir()
	for _, name := range []string{walV1Segment, walV1Snapshot} {
		raw, err := os.ReadFile(filepath.Join(walV1Dir, name))
		if err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
	return dir
}

func openWALV1(tb testing.TB, w *simnet.World, dir string) (*BackHalf, *Server, *Durable) {
	tb.Helper()
	b := newBackHalf(tb, w, walV1Seed, 1, DurableConfig{Dir: dir, Sync: durable.SyncOff})
	return b, b.Server(), b.Durable()
}

// TestRecoverParentFormatWAL is the upgrade: a state directory the
// parent commit wrote — JSON events in a version-1 segment and in the
// snapshot's scan_flows and pending_ends — recovers to the state the
// parent recovered from it; what is appended afterwards goes to a new
// version-2 segment and the old file keeps its bytes; and the mixed
// directory survives a second hard stop.
func TestRecoverParentFormatWAL(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(walV1Dir, "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden walV1Golden
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	snapshot, err := os.ReadFile(filepath.Join(walV1Dir, walV1Snapshot))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(snapshot, []byte(`"scan_flows":[{"kind":1,"payload":"eyJ`)) ||
		!bytes.Contains(snapshot, []byte(`"pending_ends":[{"kind":2,"payload":"eyJ`)) {
		t.Fatal("the fixture snapshot's buffered events are not untagged JSON: not the parent's format")
	}
	w := walV1World()

	// The directory as committed.
	_, srv, dur := openWALV1(t, w, copyWALV1(t))
	rec := dur.Recovery()
	if rec.SnapshotSeq != golden.SnapshotSeq || rec.ReplayedEvents != golden.ReplayedEvents ||
		rec.Events() != golden.Events || rec.Truncated {
		t.Fatalf("recovery %+v, the parent's was snapshot through %d + %d events", rec, golden.SnapshotSeq, golden.ReplayedEvents)
	}
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(exportNDJSON(srv))
	if got := hex.EncodeToString(sum[:]); got != golden.ExportSHA256 {
		t.Errorf("recovered export digest %s, the parent's %s", got, golden.ExportSHA256)
	}
	if got := srv.Counters(); got != golden.Counters {
		t.Errorf("recovered counters %+v, the parent's %+v", got, golden.Counters)
	}
	if scanned, tagged := srv.scanMod.Stats(); scanned != golden.Scanned || tagged != golden.Tagged {
		t.Errorf("recovered scanned/tagged %d/%d, the parent's %d/%d", scanned, tagged, golden.Scanned, golden.Tagged)
	}
	if srv.scanMod.Pending() != golden.ScanBuffer || len(srv.pendingEnds) != golden.ParkedEnds {
		t.Errorf("recovered %d buffered scanners and %d parked ends, the parent %d and %d",
			srv.scanMod.Pending(), len(srv.pendingEnds), golden.ScanBuffer, golden.ParkedEnds)
	}

	// The stream, out of the log itself.
	var events []stampedEvent
	err = durable.ScanRecords(walV1Dir, func(rec durable.Record) error {
		e, err := DecodeEvent(wire.Frame{Version: rec.Version, Kind: wire.Kind(rec.Kind), Payload: rec.Payload})
		events = append(events, stampedEvent{e, rec.AvailableAt})
		return err
	})
	if err != nil || uint64(len(events)) != golden.Events {
		t.Fatalf("decoded %d of the fixture's %d events (%v)", len(events), golden.Events, err)
	}
	baseHalf := newBackHalf(t, w, walV1Seed, 1, DurableConfig{})
	feedHours(baseHalf, events, 0, len(events))
	base := baseHalf.Server()
	want := exportNDJSON(base)

	// The parent stopped earlier: every append is one write, so a kill
	// after record `stop` leaves the segment cut exactly there.
	dir := copyWALV1(t)
	stop := int(golden.SnapshotSeq) + golden.ReplayedEvents/3
	again := stop + golden.ReplayedEvents/3
	v1Path := filepath.Join(dir, walV1Segment)
	offsets, _, err := durable.RecordOffsets(v1Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(v1Path, offsets[stop]); err != nil {
		t.Fatal(err)
	}
	v1Bytes, err := os.ReadFile(v1Path)
	if err != nil {
		t.Fatal(err)
	}

	b, srv, dur := openWALV1(t, w, dir)
	if got := dur.Recovery().Events(); got != uint64(stop) {
		t.Fatalf("recovered %d events from a log cut after %d", got, stop)
	}
	feedHours(b, events, stop, again)
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(v1Path); err != nil || !bytes.Equal(got, v1Bytes) {
		t.Errorf("the version-1 segment changed under the appends: %d bytes, was %d (%v)", len(got), len(v1Bytes), err)
	}
	info, err := durable.Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if segs := info.Segments; len(segs) != 2 || segs[0].Version != 1 || segs[0].Events != stop ||
		segs[1].Version != 2 || segs[1].StartSeq != uint64(stop)+1 || segs[1].Events != again-stop {
		t.Fatalf("after %d appends over a version-1 log of %d: segments %+v", again-stop, stop, info.Segments)
	}

	// Second hard stop, over both formats.
	b, srv, dur = openWALV1(t, w, dir)
	if rec := dur.Recovery(); rec.Events() != uint64(again) || rec.Truncated ||
		rec.ReplayedEvents != again-int(rec.SnapshotSeq) {
		t.Fatalf("recovery over the mixed log: %+v, want %d events", rec, again)
	}
	feedHours(b, events, again, len(events))
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	if got := exportNDJSON(srv); !bytes.Equal(got, want) {
		t.Errorf("export after two stops differs from the uninterrupted run's (%d vs %d bytes)", len(got), len(want))
	}
	if got, want := srv.Counters(), base.Counters(); got != want || want.RecordsCreated == 0 || want.FlowsEnded == 0 {
		t.Errorf("counters after two stops %+v, uninterrupted %+v", got, want)
	}
}

// TestOpenDurableRefusesNewerFormat: a segment or a snapshot whose
// version is above this binary's makes OpenDurable fail, naming the
// cause, and leaves the directory as it found it. The parent deleted
// such a segment as corrupt and skipped such a snapshot for an older
// one.
func TestOpenDurableRefusesNewerFormat(t *testing.T) {
	w := walV1World()
	for _, name := range []string{walV1Segment, walV1Snapshot} {
		dir := copyWALV1(t)
		// Both headers keep their u32 version after an eight-byte magic.
		path := filepath.Join(dir, name)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(raw[8:], 3)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		before := dirContents(t, dir)

		_, err = OpenDurable(DurableConfig{Dir: dir, Sync: durable.SyncOff}, backHalfServer(w, walV1Seed, 1))
		if err == nil || !strings.Contains(err.Error(), "state directory written by a newer exiotd") {
			t.Errorf("%s at version 3: OpenDurable = %v, want the newer-exiotd refusal", name, err)
		}
		after := dirContents(t, dir)
		if len(after) != len(before) {
			t.Errorf("%s at version 3: the directory went from %d files to %d", name, len(before), len(after))
		}
		for file, raw := range before {
			if !bytes.Equal(after[file], raw) {
				t.Errorf("%s at version 3: %s was modified or removed", name, file)
			}
		}
	}
}

func dirContents(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = raw
	}
	return files
}

// TestDurableAppendAllocs pins the per-event cost of logging: encoding a
// per-second report — most of any stream — into the Durable's scratch
// buffer and framing it into the manager's does not allocate.
func TestDurableAppendAllocs(t *testing.T) {
	_, w := captureBackHalf(t, 213, 1)
	dur, err := OpenDurable(DurableConfig{Dir: t.TempDir(), Sync: durable.SyncOff}, backHalfServer(w, 213, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	at := time.Date(2021, 4, 8, 14, 0, 0, 0, time.UTC)
	report := SamplerEvent{Kind: SamplerReport, Report: &trw.SecondReport{
		Second: at, Total: 40, TCP: 30, UDP: 8, ICMP: 2, NewScanFlows: 3,
		PortPackets: map[uint16]int{23: 12, 80: 7, 443: 4, 2323: 3, 5555: 2, 8080: 1, 37215: 1},
	}}
	dur.Append(report, at)
	allocs := testing.AllocsPerRun(200, func() { dur.Append(report, at) })
	if err := dur.Err(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("Durable.Append allocates %.1f times per report, want 0", allocs)
	}
}
