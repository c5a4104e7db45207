package main

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"exiot/internal/durable"
	"exiot/internal/organizer"
	"exiot/internal/packet"
	"exiot/internal/pipeline"
	"exiot/internal/trace"
)

// stateDir builds a state directory as this binary writes it: one
// segment holding one traced batch and, if extra is set, a further event
// payload, then a snapshot through that batch.
func stateDir(t *testing.T, id trace.ID, extra []byte) string {
	t.Helper()
	dir := t.TempDir()
	m, err := durable.Open(durable.Options{Dir: dir, Sync: durable.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.StartAppend(1); err != nil {
		t.Fatal(err)
	}
	at := time.Date(2021, 4, 8, 14, 0, 0, 0, time.UTC)
	ip := packet.MustParseIP("203.0.113.77")
	kind, payload, err := pipeline.AppendEncodeEvent(nil, pipeline.SamplerEvent{
		Kind:  pipeline.SamplerBatch,
		Batch: &organizer.Batch{IP: ip, IPString: ip.String(), FirstSeen: at, DetectedAt: at, TraceID: id},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AppendEvent(uint8(kind), at, payload); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteSnapshot(durable.SnapshotMeta{LastSeq: 1, EventCount: 1, TakenAt: at}, []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if extra != nil {
		if _, err := m.AppendEvent(uint8(kind), at, extra); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestStateInspectListsTracedEvents: inspect lists every file as valid
// and each logged event's trace ID, and succeeds.
func TestStateInspectListsTracedEvents(t *testing.T) {
	const id = trace.ID(0x5eed5eed5eed5eed)
	dir := stateDir(t, id, nil)
	var out bytes.Buffer
	if err := runState([]string{"-dir", dir, "inspect"}, &out); err != nil {
		t.Fatalf("inspect: %v\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{
		"snap-0000000000000001.snap",
		"wal-0000000000000001.seg",
		"traced wal events (1):",
		"203.0.113.77     trace " + id.String(),
	} {
		if !strings.Contains(report, want) {
			t.Errorf("inspect output lacks %q:\n%s", want, report)
		}
	}
	for _, bad := range []string{"UNDECODABLE", "REFUSED", "CORRUPT"} {
		if strings.Contains(report, bad) {
			t.Errorf("a healthy directory reports %s:\n%s", bad, report)
		}
	}
}

// TestStateInspectRefusesOtherReleases: a segment or snapshot from an
// older or a newer exiotd used to read "CORRUPT", and a refused segment's
// events were skipped, so the log printed "traced wal events (0)" and
// the command exited 0. The file is labelled REFUSED, with the error
// recovery stops on, no trace listing stands in for the unread log, and
// the command fails.
func TestStateInspectRefusesOtherReleases(t *testing.T) {
	for _, row := range []struct {
		name, file string
		version    uint32
		want       string
	}{
		{"older segment", "wal-0000000000000001.seg", 1, "state directory written by an older exiotd"},
		{"newer segment", "wal-0000000000000001.seg", 3, "state directory written by a newer exiotd"},
		{"newer snapshot", "snap-0000000000000001.snap", 2, "state directory written by a newer exiotd"},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir := stateDir(t, 7, nil)
			// Both headers keep their u32 version after an eight-byte magic.
			path := filepath.Join(dir, row.file)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint32(raw[8:], row.version)
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			err = runState([]string{"-dir", dir, "inspect"}, &out)
			report := out.String()
			if err == nil {
				t.Fatalf("inspect over a refused %s succeeded:\n%s", row.file, report)
			}
			if !strings.Contains(report, row.file) || !strings.Contains(report, "REFUSED: ") ||
				!strings.Contains(report, row.want) || strings.Contains(report, "CORRUPT") {
				t.Errorf("%s is not labelled REFUSED with %q:\n%s", row.file, row.want, report)
			}
			if strings.HasPrefix(row.file, "wal-") && strings.Contains(report, "traced wal events") {
				t.Errorf("a refused segment's log is listed as if read:\n%s", report)
			}
		})
	}
}

// TestStateInspectReportsUndecodableEvents: an event record that passes
// its CRC but does not decode used to vanish among the events without a
// trace ID — a log written in a codec this tool could not read printed
// "traced wal events (0)" and exited 0. It is listed by sequence number
// and fails the command.
func TestStateInspectReportsUndecodableEvents(t *testing.T) {
	dir := stateDir(t, 7, []byte("not a sample"))
	var out bytes.Buffer
	err := runState([]string{"-dir", dir, "inspect"}, &out)
	if err == nil {
		t.Fatalf("inspect of a log with an undecodable event succeeded:\n%s", out.String())
	}
	report := out.String()
	if !strings.Contains(report, "UNDECODABLE wal events (1):") || !strings.Contains(report, "seq      2  frame kind 1: ") {
		t.Errorf("the undecodable event is not listed:\n%s", report)
	}
	// The events that do decode are still listed.
	if !strings.Contains(report, "trace "+trace.ID(7).String()) {
		t.Errorf("the decodable events went missing:\n%s", report)
	}
}
