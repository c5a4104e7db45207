package pipeline

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"exiot/internal/durable"
	"exiot/internal/simnet"
	"exiot/internal/trw"
)

// writtenStateDir is a state directory as this binary leaves it: a
// server recovered from nothing appends and applies the captured stream
// up to a busy mid-hour, with scanners buffered and one end parked, takes
// a snapshot there, applies a few more events and stops.
func writtenStateDir(t *testing.T) (string, *simnet.World) {
	t.Helper()
	const seed = 217
	_, applied, rest, w := midHourState(t, seed)
	dir := t.TempDir()
	srv := backHalfServer(w, seed, 1)
	dur, err := OpenDurable(DurableConfig{Dir: dir, Sync: durable.SyncOff}, srv)
	if err != nil {
		t.Fatal(err)
	}
	apply := func(events []stampedEvent) {
		for _, se := range events {
			dur.Append(se.e, se.at)
			srv.HandleEvent(se.e, se.at)
		}
	}
	apply(applied)
	dur.MaybeSnapshot(applied[len(applied)-1].at, true)
	apply(rest[:5])
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, w
}

// retagSnapshot rewrites the newest snapshot of dir with every buffered
// event tagged v (0 drops the tag, as a JSON-era snapshot has none).
func retagSnapshot(t *testing.T, dir string, v uint8) {
	t.Helper()
	m, err := durable.Open(durable.Options{Dir: dir, Sync: durable.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	meta, payload, err := m.LatestSnapshot()
	if err != nil || payload == nil {
		t.Fatalf("no snapshot to retag (%v)", err)
	}
	var st serverState
	if err := json.Unmarshal(payload, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.ScanFlows) == 0 || len(st.PendingEnds) == 0 {
		t.Fatalf("snapshot buffers %d flows and %d ends, want both", len(st.ScanFlows), len(st.PendingEnds))
	}
	for _, events := range [][]encodedEvent{st.ScanFlows, st.PendingEnds} {
		for i := range events {
			events[i].Version = v
		}
	}
	if payload, err = json.Marshal(st); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteSnapshot(meta, payload); err != nil {
		t.Fatal(err)
	}
}

// setHeaderVersion rewrites the u32 version a segment or snapshot header
// keeps after its eight-byte magic.
func setHeaderVersion(t *testing.T, path string, v uint32) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[8:], v)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenDurableRefusesNewerFormat: a state directory holding a file
// another release wrote makes OpenDurable fail, naming whether that
// release is older or newer, and leaves every file as it found it. A
// newer one is a segment or snapshot header above this binary's version,
// or a snapshot event tagged above v2; an older one a version-1 segment
// (JSON events) or an untagged snapshot event. The directory is one this
// binary wrote, and recovers as it is.
func TestOpenDurableRefusesNewerFormat(t *testing.T) {
	written, w := writtenStateDir(t)
	files := dirContents(t, written)
	snaps, err := filepath.Glob(filepath.Join(written, "snap-*.snap"))
	const segment = "wal-0000000000000001.seg"
	if err != nil || len(snaps) != 1 || files[segment] == nil || len(files) != 2 {
		t.Fatalf("the written directory holds %d files, want one segment and one snapshot", len(files))
	}
	snapshot := filepath.Base(snaps[0])
	copyDir := func(t *testing.T) string {
		dir := t.TempDir()
		for name, raw := range files {
			if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}

	// Unedited, the directory recovers through the snapshot and the tail.
	dur, err := OpenDurable(DurableConfig{Dir: copyDir(t), Sync: durable.SyncOff}, backHalfServer(w, 217, 1))
	if err != nil {
		t.Fatal(err)
	}
	if rec := dur.Recovery(); rec.SnapshotSeq == 0 || rec.ReplayedEvents != 5 || rec.Truncated {
		t.Errorf("recovery of the written directory: %+v, want a snapshot and the five events after it", rec)
	}
	dur.Close()

	ops, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	quoted := map[string]bool{}
	for _, line := range strings.Split(string(ops), "\n") {
		quoted[strings.TrimSpace(line)] = true
	}
	for _, row := range []struct {
		name string
		edit func(t *testing.T, dir string)
		want error
	}{
		{"newer segment", func(t *testing.T, dir string) { setHeaderVersion(t, filepath.Join(dir, segment), 3) }, durable.ErrNewerFormat},
		{"newer snapshot", func(t *testing.T, dir string) { setHeaderVersion(t, filepath.Join(dir, snapshot), 3) }, durable.ErrNewerFormat},
		{"newer snapshot events", func(t *testing.T, dir string) { retagSnapshot(t, dir, 3) }, durable.ErrNewerFormat},
		{"older segment", func(t *testing.T, dir string) { setHeaderVersion(t, filepath.Join(dir, segment), 1) }, durable.ErrOlderFormat},
		{"older snapshot events", func(t *testing.T, dir string) { retagSnapshot(t, dir, 0) }, durable.ErrOlderFormat},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir := copyDir(t)
			row.edit(t, dir)
			before := dirContents(t, dir)
			_, err := OpenDurable(DurableConfig{Dir: dir, Sync: durable.SyncOff}, backHalfServer(w, 217, 1))
			if !errors.Is(err, row.want) {
				t.Fatalf("OpenDurable = %v, want the refusal %q", err, row.want)
			}
			// The one refusal whose line names no file: the guide quotes it.
			if row.name == "older snapshot events" && !quoted[err.Error()] {
				t.Errorf("docs/OPERATIONS.md does not quote the refusal on a line of its own:\n%s", err)
			}
			if after := dirContents(t, dir); !reflect.DeepEqual(after, before) {
				t.Errorf("the refused directory changed: %d files, was %d", len(after), len(before))
			}
		})
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
