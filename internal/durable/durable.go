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
	metWALAppends = telemetry.Default().CounterVec("exiot_wal_appends_total",
		"WAL records appended, by type (event|retrain).", "type")
	metWALAppendEvent   = metWALAppends.With("event")
	metWALAppendRetrain = metWALAppends.With("retrain")
	metWALBytes         = telemetry.Default().Counter("exiot_wal_bytes_total",
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
	// SyncInterval fsyncs at most once per configured interval (plus on
	// rotation, snapshot, and close): a crash loses at most the last
	// interval of records, which the simulate path regenerates anyway.
	SyncInterval SyncPolicy = "interval"
	// SyncOff never fsyncs explicitly; the OS page cache decides. Only
	// process crashes (not host crashes) are fully survivable.
	SyncOff SyncPolicy = "off"
)

// RecordType discriminates WAL records.
type RecordType uint8

// WAL record types.
const (
	// RecordEvent carries one wire-encoded sampler event plus the
	// simulated instant it became available to the feed server.
	RecordEvent RecordType = 1
	// RecordRetrain marks a successful daily retrain with its metadata
	// (JSON). Replay recomputes retrains deterministically from the
	// restored trainer window, so these records are observability
	// markers for `exiotctl state inspect`, not replay inputs.
	RecordRetrain RecordType = 2
)

// String names a record type for inspection output.
func (t RecordType) String() string {
	switch t {
	case RecordEvent:
		return "event"
	case RecordRetrain:
		return "retrain"
	default:
		return "unknown"
	}
}

// Record is one decoded WAL record.
type Record struct {
	Seq  uint64
	Type RecordType
	// AvailableAt is the simulated feed-arrival instant (RecordEvent).
	AvailableAt time.Time
	// Kind is the wire frame kind of the embedded event (RecordEvent).
	Kind uint8
	// Version is the codec of the embedded event, as wire.Frame.Version
	// numbers it (RecordEvent): wire.Version2 in the segments this binary
	// writes, 0 — the legacy JSON — in a version-1 segment. Build the
	// wire.Frame for pipeline.DecodeEvent from Kind, Version and Payload.
	Version uint8
	// Payload is the wire-encoded event (RecordEvent) or the retrain
	// metadata JSON (RecordRetrain). It aliases the reader's buffer and
	// is valid only during the callback that receives the Record: copy
	// it to keep it.
	Payload []byte
}

// Options configures a state directory.
type Options struct {
	// Dir is the state directory (created if missing).
	Dir string
	// Sync is the fsync policy (default SyncInterval).
	Sync SyncPolicy
	// SyncEvery is the flush period under SyncInterval (default 1s).
	SyncEvery time.Duration
	// SegmentBytes rotates the append segment past this size (default
	// 8 MiB).
	SegmentBytes int64
	// Retain is how long old snapshots stay replayable before
	// compaction removes them and their covered WAL segments (default
	// 14 days — the feed's historical lapse window). Measured against
	// the simulated clock stamped into each snapshot.
	Retain time.Duration
}

func (o Options) withDefaults() Options {
	if o.Sync == "" {
		o.Sync = SyncInterval
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = time.Second
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.Retain <= 0 {
		o.Retain = 14 * 24 * time.Hour
	}
	return o
}
