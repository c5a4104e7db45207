package pipeline

import (
	"encoding/json"
	"fmt"
	"time"

	"exiot/internal/organizer"
	"exiot/internal/packet"
	"exiot/internal/trace"
	"exiot/internal/trw"
	"exiot/internal/wire"
)

// This file holds the decode entry point for sampler events and the
// legacy JSON event codec. Nothing writes JSON events any more — the
// wire, the WAL and the durable snapshot all carry the binary layout of
// binenc.go — but DecodeEvent still reads them for one release, out of
// version-1 WAL segments and snapshots taken before the upgrade.

// flowEndMsg is the JSON payload of a flow-end event. TraceID is omitted
// when zero, so records written before tracing still decode.
type flowEndMsg struct {
	IP         string    `json:"ip"`
	FirstSeen  time.Time `json:"first_seen"`
	DetectedAt time.Time `json:"detected_at"`
	LastSeen   time.Time `json:"last_seen"`
	TraceID    trace.ID  `json:"trace_id,omitempty"`
}

// EncodeEvent serializes a sampler event as a JSON payload.
//
// Deprecated: use AppendEncodeEvent. Nothing under internal/ or cmd/
// calls this; it stays exported only while the benchmark's codec.json_*
// rungs time it, and goes with them and DecodeEvent's JSON branch.
func EncodeEvent(e SamplerEvent) (wire.Kind, []byte, error) {
	switch e.Kind {
	case SamplerBatch:
		data, err := organizer.Encode(e.Batch)
		if err != nil {
			return 0, nil, err
		}
		return wire.KindSample, data, nil
	case SamplerFlowEnd:
		data, err := json.Marshal(flowEndMsg{
			IP:         e.IP.String(),
			FirstSeen:  e.FirstSeen,
			DetectedAt: e.DetectedAt,
			LastSeen:   e.LastSeen,
			TraceID:    e.TraceID,
		})
		if err != nil {
			return 0, nil, fmt.Errorf("encode flow end: %w", err)
		}
		return wire.KindFlowEnd, data, nil
	case SamplerReport:
		data, err := json.Marshal(e.Report)
		if err != nil {
			return 0, nil, fmt.Errorf("encode report: %w", err)
		}
		return wire.KindReport, data, nil
	default:
		return 0, nil, fmt.Errorf("encode event: unknown kind %d", e.Kind)
	}
}

// DecodeEvent deserializes a frame back into a sampler event,
// dispatching on the frame's Version: wire.Version2 — frames off the
// wire, WAL records of a version-2 segment, a snapshot's events tagged
// "v":2 — is the compact binary payload (binenc.go); Version 0 is the
// JSON a version-1 segment or an untagged snapshot event holds. The
// payload is fully copied out, so the frame's (pooled) buffer, or the
// log reader's, may be reused as soon as DecodeEvent returns.
func DecodeEvent(f wire.Frame) (SamplerEvent, error) {
	if f.Version == wire.Version2 {
		return decodeEventV2(f)
	}
	switch f.Kind {
	case wire.KindSample:
		b, err := organizer.Decode(f.Payload)
		if err != nil {
			return SamplerEvent{}, err
		}
		return SamplerEvent{Kind: SamplerBatch, Batch: &b, TraceID: b.TraceID}, nil
	case wire.KindFlowEnd:
		var msg flowEndMsg
		if err := json.Unmarshal(f.Payload, &msg); err != nil {
			return SamplerEvent{}, fmt.Errorf("decode flow end: %w", err)
		}
		ip, err := packet.ParseIP(msg.IP)
		if err != nil {
			return SamplerEvent{}, fmt.Errorf("decode flow end: %w", err)
		}
		return SamplerEvent{
			Kind:       SamplerFlowEnd,
			IP:         ip,
			FirstSeen:  msg.FirstSeen,
			DetectedAt: msg.DetectedAt,
			LastSeen:   msg.LastSeen,
			TraceID:    msg.TraceID,
		}, nil
	case wire.KindReport:
		var rep trw.SecondReport
		if err := json.Unmarshal(f.Payload, &rep); err != nil {
			return SamplerEvent{}, fmt.Errorf("decode report: %w", err)
		}
		return SamplerEvent{Kind: SamplerReport, Report: &rep}, nil
	default:
		return SamplerEvent{}, fmt.Errorf("decode event: unknown frame kind %d", f.Kind)
	}
}
