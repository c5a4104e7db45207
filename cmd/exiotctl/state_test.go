package main

import (
	"bytes"
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

// mixedStateDir builds a state directory as an upgrade leaves it: the
// committed parent-format segment (version 1, JSON payloads, traced
// batches) and, appended by this binary, a version-2 segment holding one
// traced batch. extra, if any, is appended as a further event payload.
func mixedStateDir(t *testing.T, id trace.ID, extra []byte) string {
	t.Helper()
	dir := t.TempDir()
	const v1 = "wal-0000000000000001.seg"
	raw, err := os.ReadFile(filepath.Join("../../internal/pipeline/testdata/wal_v1", v1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, v1), raw, 0o644); err != nil {
		t.Fatal(err)
	}
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

// TestStateInspectMixedFormats: over a directory holding a version-1 and
// a version-2 segment, inspect names each segment's format and lists the
// traced events of both — the JSON ones and the binary one.
func TestStateInspectMixedFormats(t *testing.T) {
	const id = trace.ID(0x5eed5eed5eed5eed)
	dir := mixedStateDir(t, id, nil)
	var out bytes.Buffer
	if err := runState([]string{"-dir", dir, "inspect"}, &out); err != nil {
		t.Fatalf("inspect: %v\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{
		"wal-0000000000000001.seg  v1 ",
		"  v2 ",
		"trace d116d859955e96c2", // a batch in the version-1 segment
		"203.0.113.77     trace " + id.String(),
	} {
		if !strings.Contains(report, want) {
			t.Errorf("inspect output lacks %q:\n%s", want, report)
		}
	}
	if strings.Contains(report, "UNDECODABLE") {
		t.Errorf("a healthy log reports undecodable events:\n%s", report)
	}
}

// TestStateInspectReportsUndecodableEvents: an event record that passes
// its CRC but does not decode used to vanish among the events without a
// trace ID — a log written in a codec this tool could not read printed
// "traced wal events (0)" and exited 0. It is listed by sequence number
// and fails the command.
func TestStateInspectReportsUndecodableEvents(t *testing.T) {
	dir := mixedStateDir(t, 7, []byte("not a sample"))
	var out bytes.Buffer
	err := runState([]string{"-dir", dir, "inspect"}, &out)
	if err == nil {
		t.Fatalf("inspect of a log with an undecodable event succeeded:\n%s", out.String())
	}
	report := out.String()
	if !strings.Contains(report, "UNDECODABLE wal events (1):") || !strings.Contains(report, "frame kind 1, codec 2") {
		t.Errorf("the undecodable event is not listed:\n%s", report)
	}
	// The events that do decode are still listed.
	if !strings.Contains(report, "trace d116d859955e96c2") {
		t.Errorf("the decodable events went missing:\n%s", report)
	}
}
