package pipeline

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"exiot/internal/organizer"
	"exiot/internal/packet"
	"exiot/internal/trace"
	"exiot/internal/trw"
	"exiot/internal/wire"
)

// Compact binary payload encodings: the one form a sampler event takes
// outside memory — on the wire, in a WAL record, in a snapshot's
// buffered events. The layouts are field-order binary, big-endian, with
// packet headers in their native wire format (packet.Marshal).
// DecodeEvent dispatches on the frame's Version; the JSON payloads it
// still reads (bridge.go) are what WAL segments and snapshots held
// before they went binary, and nothing writes them any more.
//
// Layouts (all integers big-endian):
//
//	sample   u32 srcIP · i64 firstSeenNs · i64 detectedAtNs ·
//	         u64 traceID · u32 sampleSize · u32 nPackets ·
//	         nPackets × (u16 hdrLen · hdr · i64 timestampNs)
//	flowEnd  u32 srcIP · i64 firstSeenNs · i64 detectedAtNs ·
//	         i64 lastSeenNs · u64 traceID
//	report   i64 secondNs · 6 × i64 counters · u16 nPorts ·
//	         nPorts × (u16 port · u32 count), ports ascending
//
// Times are UnixNano with math.MinInt64 reserved for the zero time, so a
// round-trip preserves time.Time zero-ness exactly.

const zeroTimeNanos = math.MinInt64

func appendTime(dst []byte, t time.Time) []byte {
	n := int64(zeroTimeNanos)
	if !t.IsZero() {
		n = t.UnixNano()
	}
	return binary.BigEndian.AppendUint64(dst, uint64(n))
}

// AppendEncodeEvent serializes a sampler event into the wire's binary
// layout, appending the payload to dst (which may be nil or a reused
// scratch buffer) and returning the frame kind to ship it under.
func AppendEncodeEvent(dst []byte, e SamplerEvent) (wire.Kind, []byte, error) {
	switch e.Kind {
	case SamplerBatch:
		b := e.Batch
		dst = binary.BigEndian.AppendUint32(dst, uint32(b.IP))
		dst = appendTime(dst, b.FirstSeen)
		dst = appendTime(dst, b.DetectedAt)
		dst = binary.BigEndian.AppendUint64(dst, uint64(b.TraceID))
		dst = binary.BigEndian.AppendUint32(dst, uint32(b.SampleSize))
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(b.Sample)))
		for i := range b.Sample {
			p := &b.Sample[i]
			lenOff := len(dst)
			dst = append(dst, 0, 0) // hdrLen backpatched below
			hdrStart := len(dst)
			dst = p.Marshal(dst)
			binary.BigEndian.PutUint16(dst[lenOff:], uint16(len(dst)-hdrStart))
			dst = appendTime(dst, p.Timestamp)
		}
		return wire.KindSample, dst, nil
	case SamplerFlowEnd:
		dst = binary.BigEndian.AppendUint32(dst, uint32(e.IP))
		dst = appendTime(dst, e.FirstSeen)
		dst = appendTime(dst, e.DetectedAt)
		dst = appendTime(dst, e.LastSeen)
		dst = binary.BigEndian.AppendUint64(dst, uint64(e.TraceID))
		return wire.KindFlowEnd, dst, nil
	case SamplerReport:
		r := e.Report
		dst = appendTime(dst, r.Second)
		for _, v := range [...]int{r.Total, r.TCP, r.UDP, r.ICMP, r.Backscatter, r.NewScanFlows} {
			dst = binary.BigEndian.AppendUint64(dst, uint64(int64(v)))
		}
		// A second rarely touches more ports than the stack array holds.
		var few [64]uint16
		ports := few[:0]
		for port := range r.PortPackets {
			ports = append(ports, port)
		}
		slices.Sort(ports)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(ports)))
		for _, port := range ports {
			dst = binary.BigEndian.AppendUint16(dst, port)
			dst = binary.BigEndian.AppendUint32(dst, uint32(r.PortPackets[port]))
		}
		return wire.KindReport, dst, nil
	default:
		return 0, nil, fmt.Errorf("encode event: unknown kind %d", e.Kind)
	}
}

// binReader is a bounds-checked cursor over a binary payload. After any
// read, err reports whether the payload was long enough; reads after an
// error return zeros.
type binReader struct {
	b   []byte
	off int
	err error
}

// count passes through an element count just read from the payload,
// rejecting one the remaining bytes cannot hold at minSize bytes per
// element — so a hostile count never sizes an allocation.
func (r *binReader) count(n, minSize int) int {
	if r.err != nil {
		return 0
	}
	if rest := len(r.b) - r.off; n > rest/minSize {
		r.err = fmt.Errorf("count %d at offset %d exceeds the %d remaining bytes", n, r.off, rest)
		return 0
	}
	return n
}

// end reports the first read error, or trailing bytes after a fully
// decoded event.
func (r *binReader) end() error {
	if r.err == nil && r.off != len(r.b) {
		r.err = fmt.Errorf("%d trailing bytes after offset %d", len(r.b)-r.off, r.off)
	}
	return r.err
}

func (r *binReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.err = fmt.Errorf("truncated payload at offset %d (need %d of %d bytes)", r.off, n, len(r.b))
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *binReader) u16() uint16 {
	if s := r.take(2); s != nil {
		return binary.BigEndian.Uint16(s)
	}
	return 0
}

func (r *binReader) u32() uint32 {
	if s := r.take(4); s != nil {
		return binary.BigEndian.Uint32(s)
	}
	return 0
}

func (r *binReader) u64() uint64 {
	if s := r.take(8); s != nil {
		return binary.BigEndian.Uint64(s)
	}
	return 0
}

func (r *binReader) time() time.Time {
	n := int64(r.u64())
	if n == zeroTimeNanos || r.err != nil {
		return time.Time{}
	}
	return time.Unix(0, n).UTC()
}

func decodeEventV2(f wire.Frame) (SamplerEvent, error) {
	r := binReader{b: f.Payload}
	switch f.Kind {
	case wire.KindSample:
		b := organizer.Batch{
			IP:         packet.IP(r.u32()),
			FirstSeen:  r.time(),
			DetectedAt: r.time(),
			TraceID:    trace.ID(r.u64()),
			SampleSize: int(r.u32()),
		}
		b.IPString = b.IP.String()
		// Each packet costs at least its u16 length and i64 timestamp.
		if n := r.count(int(r.u32()), 2+8); n > 0 {
			b.Sample = make([]packet.Packet, n)
			for i := 0; i < n && r.err == nil; i++ {
				hdr := r.take(int(r.u16()))
				if r.err != nil {
					break
				}
				if _, err := b.Sample[i].Unmarshal(hdr); err != nil {
					return SamplerEvent{}, fmt.Errorf("decode sample packet %d: %w", i, err)
				}
				b.Sample[i].Timestamp = r.time()
			}
		}
		if err := r.end(); err != nil {
			return SamplerEvent{}, fmt.Errorf("decode sample: %w", err)
		}
		return SamplerEvent{Kind: SamplerBatch, Batch: &b, TraceID: b.TraceID}, nil
	case wire.KindFlowEnd:
		e := SamplerEvent{
			Kind:       SamplerFlowEnd,
			IP:         packet.IP(r.u32()),
			FirstSeen:  r.time(),
			DetectedAt: r.time(),
			LastSeen:   r.time(),
		}
		e.TraceID = trace.ID(r.u64())
		if err := r.end(); err != nil {
			return SamplerEvent{}, fmt.Errorf("decode flow end: %w", err)
		}
		return e, nil
	case wire.KindReport:
		rep := trw.SecondReport{
			Second:       r.time(),
			Total:        int(int64(r.u64())),
			TCP:          int(int64(r.u64())),
			UDP:          int(int64(r.u64())),
			ICMP:         int(int64(r.u64())),
			Backscatter:  int(int64(r.u64())),
			NewScanFlows: int(int64(r.u64())),
		}
		if n := r.count(int(r.u16()), 2+4); n > 0 {
			rep.PortPackets = make(map[uint16]int, n)
			for i := 0; i < n; i++ {
				port := r.u16()
				rep.PortPackets[port] = int(r.u32())
			}
		}
		if err := r.end(); err != nil {
			return SamplerEvent{}, fmt.Errorf("decode report: %w", err)
		}
		return SamplerEvent{Kind: SamplerReport, Report: &rep}, nil
	default:
		return SamplerEvent{}, fmt.Errorf("decode event: unknown frame kind %d", f.Kind)
	}
}
