// Package durable is eX-IoT's crash-consistency subsystem: a
// write-ahead log plus periodic full-state snapshots that let the feed
// server survive a hard stop and resume mid-day with a byte-identical
// feed. The paper's deployment leans on MongoDB and Redis for exactly
// this property — days of continuous telescope ingest must not be lost
// to a process restart — and this package is the stdlib-only substitute.
//
// Layout of a state directory:
//
//	wal-<startSeq>.seg   append log segments (CRC32C-framed records)
//	snap-<lastSeq>.snap  full-state snapshots (CRC-framed JSON payload)
//
// The WAL records *inputs* — sampler events in the wire's v2 binary
// encoding, the same bytes a shard ships (pipeline.AppendEncodeEvent) —
// not store mutations: replaying the log through the unmodified
// processing path reproduces every downstream effect — record inserts,
// END_FLOW updates, trainer-window growth, retrains, notifications —
// because the pipeline is deterministic given its inputs (see DESIGN.md,
// "Durability and recovery determinism"). Snapshots bound replay time
// and drive log compaction keyed to the feed's historical lapse window.
package durable

import (
	"hash/crc32"
	"time"

	"exiot/internal/telemetry"
)

// Telemetry handles for the durability stage (see docs/OPERATIONS.md).
var (
	metWALAppends = telemetry.Default().Counter("exiot_wal_appends_total",
		"Event records appended to the WAL.")
	metWALBytes = telemetry.Default().Counter("exiot_wal_bytes_total",
		"Bytes appended to WAL segments (framing included).")
	metWALFsyncs = telemetry.Default().Counter("exiot_wal_fsyncs_total",
		"fsync calls issued by the WAL appender.")
	metWALErrors = telemetry.Default().Counter("exiot_wal_errors_total",
		"WAL append or snapshot failures (durability degraded).")
	metWALSegments = telemetry.Default().Gauge("exiot_wal_segments",
		"Live WAL segment files in the state directory.")
	metSnapshots = telemetry.Default().CounterVec("exiot_snapshots_total",
		"Snapshot attempts, by result (written|failed).", "result")
	metSnapshotBytes = telemetry.Default().Gauge("exiot_snapshot_last_bytes",
		"Payload size of the most recently written snapshot.")
	metReplayRecords = telemetry.Default().Counter("exiot_replay_records_total",
		"WAL records re-applied during crash recovery.")
)

// castagnoli is the CRC32C polynomial table used for all framing
// checksums (the same polynomial storage systems use; hardware
// accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy selects when appended WAL records reach stable storage.
type SyncPolicy string

// Fsync policies, in decreasing durability / increasing throughput
// order. See docs/OPERATIONS.md for the operational trade-offs.
const (
	// SyncAlways fsyncs after every append: no acknowledged record can
	// be lost, at the cost of one fsync per sampler event.
	SyncAlways SyncPolicy = "always"
	// SyncInterval fsyncs at most once a second (plus on rotation,
	// snapshot, and close): a crash loses at most the last second of
	// records, which the simulate path regenerates anyway.
	SyncInterval SyncPolicy = "interval"
	// SyncOff never fsyncs explicitly; the OS page cache decides. Only
	// process crashes (not host crashes) are fully survivable.
	SyncOff SyncPolicy = "off"
)

// Record is one logged sampler event, decoded from the WAL.
type Record struct {
	Seq uint64
	// AvailableAt is the simulated feed-arrival instant.
	AvailableAt time.Time
	// Kind is the wire frame kind of the event. Build the wire.Frame for
	// pipeline.DecodeEvent from Kind, Payload and wire.Version2, the only
	// codec a segment holds.
	Kind uint8
	// Payload is the wire-encoded event. It aliases the reader's buffer
	// and is valid only during the callback that receives the Record:
	// copy it to keep it.
	Payload []byte
}

// Options configures a state directory.
type Options struct {
	// Dir is the state directory (created if missing).
	Dir string
	// Sync is the fsync policy (default SyncInterval, flushing at most
	// once a second).
	Sync SyncPolicy
	// SegmentBytes rotates the append segment past this size (default
	// 8 MiB).
	SegmentBytes int64
}

// retain is how long old snapshots stay replayable before compaction
// removes them and their covered WAL segments: the feed's historical
// lapse window, measured against the simulated clock stamped into each
// snapshot.
const retain = 14 * 24 * time.Hour

func (o Options) withDefaults() Options {
	if o.Sync == "" {
		o.Sync = SyncInterval
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	return o
}
