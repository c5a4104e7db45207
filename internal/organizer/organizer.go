// Package organizer implements eX-IoT's Packet Organizer module: it
// receives sampled flows, groups the packets by source address and
// arrival time, and drops sources that did not yield enough samples to be
// usable by the classifier — "typically sources that have been
// erroneously identified as scanners and may be the result of node
// malfunction on the Internet". Its output is the JSON-encoded batch the
// buffer carries to the scan and annotate modules.
package organizer

import (
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"exiot/internal/packet"
	"exiot/internal/trace"
	"exiot/internal/trw"
)

// DefaultMinSamples is the minimum usable sample size. Flows shorter than
// this cannot produce stable quartile features.
const DefaultMinSamples = 50

// Batch is one organized flow, ready for the scan and annotate modules.
type Batch struct {
	IP         packet.IP       `json:"-"`
	IPString   string          `json:"ip"`
	FirstSeen  time.Time       `json:"first_seen"`
	DetectedAt time.Time       `json:"detected_at"`
	Sample     []packet.Packet `json:"-"`
	// SampleSize is serialized in place of raw packets (the wire carries
	// packets in binary, not JSON).
	SampleSize int `json:"sample_size"`
	// TraceID is the sampler-assigned deterministic trace identifier; it
	// rides the wire in the batch header so both sides of a split
	// deployment (and WAL replays) agree on it.
	TraceID trace.ID `json:"trace_id,omitempty"`
}

// Organizer filters and normalizes sampled flows. The zero value is
// ready to use.
type Organizer struct {
	accepted int64
	dropped  int64
}

// Organize converts a detector sample event into a batch. ok is false
// when the flow is dropped for having fewer than DefaultMinSamples
// packets.
func (o *Organizer) Organize(e trw.Event) (Batch, bool) {
	if e.Kind != trw.EventSample || len(e.Sample) < DefaultMinSamples {
		o.dropped++
		return Batch{}, false
	}
	sample := make([]packet.Packet, len(e.Sample))
	copy(sample, e.Sample)
	// Organize by arrival time: the detector emits in order, but merged
	// streams from multiple capture workers may interleave. (Stable
	// generic sort — same order as the reflect-based SliceStable it
	// replaced, without per-swap typedmemmove cost.)
	slices.SortStableFunc(sample, func(a, b packet.Packet) int {
		return a.Timestamp.Compare(b.Timestamp)
	})
	o.accepted++
	return Batch{
		IP:         e.IP,
		IPString:   e.IP.String(),
		FirstSeen:  e.FirstSeen,
		DetectedAt: e.DetectedAt,
		Sample:     sample,
		SampleSize: len(sample),
	}, true
}

// Stats returns (accepted, dropped) counters.
func (o *Organizer) Stats() (accepted, dropped int64) {
	return o.accepted, o.dropped
}

// wireBatch is the transport encoding of a Batch: JSON header plus
// binary-marshaled packets.
type wireBatch struct {
	Header  Batch    `json:"header"`
	Packets [][]byte `json:"packets"`
	// Stamps carries packet capture times (binary packet encoding keeps
	// timestamps out of band, like pcap).
	Stamps []time.Time `json:"stamps"`
}

// Encode serializes a batch for the wire.
func Encode(b *Batch) ([]byte, error) {
	wb := wireBatch{Header: *b, Packets: make([][]byte, len(b.Sample)), Stamps: make([]time.Time, len(b.Sample))}
	wb.Header.Sample = nil
	for i := range b.Sample {
		wb.Packets[i] = b.Sample[i].Marshal(nil)
		wb.Stamps[i] = b.Sample[i].Timestamp
	}
	data, err := json.Marshal(&wb)
	if err != nil {
		return nil, fmt.Errorf("organizer: encode batch: %w", err)
	}
	return data, nil
}

// Decode deserializes a batch from the wire.
func Decode(data []byte) (Batch, error) {
	var wb wireBatch
	if err := json.Unmarshal(data, &wb); err != nil {
		return Batch{}, fmt.Errorf("organizer: decode batch: %w", err)
	}
	if len(wb.Packets) != len(wb.Stamps) {
		return Batch{}, fmt.Errorf("organizer: %d packets but %d stamps", len(wb.Packets), len(wb.Stamps))
	}
	b := wb.Header
	ip, err := packet.ParseIP(b.IPString)
	if err != nil {
		return Batch{}, fmt.Errorf("organizer: decode batch: %w", err)
	}
	b.IP = ip
	b.Sample = make([]packet.Packet, len(wb.Packets))
	for i, raw := range wb.Packets {
		if _, err := b.Sample[i].Unmarshal(raw); err != nil {
			return Batch{}, fmt.Errorf("organizer: decode packet %d: %w", i, err)
		}
		b.Sample[i].Timestamp = wb.Stamps[i]
	}
	return b, nil
}
