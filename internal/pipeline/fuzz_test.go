package pipeline

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"exiot/internal/durable"
	"exiot/internal/telemetry"
	"exiot/internal/wire"
)

// FuzzDecodeEventV2 feeds one hostile frame through everything a peer
// can reach with it: a one-shard Aggregator's Ingest (the binary decoder
// and the frame checks), then that hour's barrier (which runs the merge,
// gap fill included). An honest report for the hour's last second goes in
// first, so a fuzzed report anywhere else stretches the fill. Whatever
// the bytes, nothing may panic, and the work must stay within a constant
// multiple of the input plus one hour's worth of merged reports.
//
// The same decoder now reads the WAL's event records and a snapshot's
// buffered events (both hold these payloads; a record's CRC only proves
// the bytes are the ones written), so this is their fuzzer too. The
// framing around a WAL payload has its own: durable.FuzzScanSegment.
func FuzzDecodeEventV2(f *testing.F) {
	epoch := time.Date(2021, 4, 8, 14, 0, 0, 0, time.UTC).Unix()
	for _, e := range mixedEvents(f) {
		kind, payload, err := AppendEncodeEvent(nil, e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(kind), epoch, payload)
	}
	// testdata/fuzz adds the two inputs that once broke this path: a
	// sample claiming 2³²−1 packets, a report a decade before its hour.

	f.Fuzz(func(t *testing.T, kind uint8, epoch int64, payload []byte) {
		frame := wire.Frame{Version: wire.Version2, ShardCount: 1, HourEpoch: epoch}
		anchor, fuzzed, barrier := frame, frame, frame
		anchor.Seq, anchor.Kind = 1, wire.KindReport
		_, anchor.Payload, _ = AppendEncodeEvent(nil, aggReport(time.Unix(epoch-1, 0), 1, nil))
		fuzzed.Seq, fuzzed.Kind, fuzzed.Payload = 2, wire.Kind(kind), payload
		barrier.Seq, barrier.Kind = 3, wire.KindHourEnd

		emitted := 0
		agg := NewAggregator(AggregatorConfig{
			Shards: 1,
			Emit:   func(SamplerEvent, time.Time) { emitted++ },
			Health: telemetry.NewHealth(),
		})
		got := allocatedBytes(func() {
			// An epoch too wild to encode fails its own anchor; the rest
			// then waits on that sequence forever, which is bounded too.
			_ = agg.Ingest(anchor)
			if agg.Ingest(fuzzed) != nil {
				return
			}
			if err := agg.Ingest(barrier); err != nil {
				t.Errorf("barrier after an accepted frame: %v", err)
			}
		})
		if emitted > 3600 {
			t.Errorf("one frame and a barrier merged into %d events", emitted)
		}
		// A decoded packet is ~10x its minimum encoding; a merged hour is
		// at most 3600 small reports (~2 MB with the sort buffer).
		if limit := uint64(64*len(payload) + 4<<20); got > limit {
			t.Errorf("%d payload bytes cost %d allocated bytes (limit %d)", len(payload), got, limit)
		}
	})
}

// FuzzRestoreState feeds RestoreState what it reads from disk. Whatever
// the bytes, it must refuse them or leave a server that can flush its
// restored scan buffer and export itself again, for work that stays
// within a constant multiple of the input. A refusal as another
// release's snapshot, older or newer, must point at a buffered event of
// that release's codec and restore nothing.
//
// An exec costs a few milliseconds, but the seeds are ~60 KB snapshots,
// and minimizing an input that finds new coverage re-runs the target
// once per trimmed byte run: under the default minimization budget
// (60 s) one such input takes a short run's whole time. Run it with
// -fuzzminimizetime 100x, as CI does.
func FuzzRestoreState(f *testing.F) {
	const seed = 217
	midHour, _, _, w := midHourState(f, seed)
	payload, err := midHour.ExportState()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)
	f.Add(bytes.ReplaceAll(payload, []byte(`"v":2`), []byte(`"v":3`))) // newer
	f.Add(bytes.ReplaceAll(payload, []byte(`,"v":2`), nil))            // older
	// A snapshot an older release wrote, one carrying a (valid) model,
	// and one whose forest points a child outside its tree.
	for _, name := range []string{"snapshot_parent.json", "snapshot_model.json", "snapshot_model_child_out_of_range.json"} {
		committed, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(committed)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		srv := backHalfServer(w, seed, 1)
		var err error
		got := allocatedBytes(func() {
			if err = srv.RestoreState(payload); err != nil {
				return
			}
			srv.FlushScans(time.Date(2021, 4, 8, 14, 0, 0, 0, time.UTC))
			if _, err := srv.ExportState(); err != nil {
				t.Errorf("export after an accepted restore: %v", err)
			}
		})
		// A buffered scanner is two bytes of JSON and a few hundred of
		// probe results.
		if limit := uint64(512*len(payload) + 1<<20); got > limit {
			t.Errorf("%d payload bytes cost %d allocated bytes (limit %d)", len(payload), got, limit)
		}

		older, newer := errors.Is(err, durable.ErrOlderFormat), errors.Is(err, durable.ErrNewerFormat)
		if !older && !newer {
			return
		}
		var st serverState
		if json.Unmarshal(payload, &st) != nil {
			t.Fatalf("refused a payload that is no snapshot: %v", err)
		}
		tagged := false
		for _, enc := range append(st.ScanFlows, st.PendingEnds...) {
			tagged = tagged || (older && enc.Version < wire.Version2) || (newer && enc.Version > wire.Version2)
		}
		if !tagged {
			t.Errorf("refused with %v, but no buffered event carries that release's tag", err)
		}
		if srv.historical.Len() != 0 || srv.Counters() != (Counters{}) {
			t.Errorf("a refused snapshot restored %d records, counters %+v", srv.historical.Len(), srv.Counters())
		}
	})
}
