// Package features implements eX-IoT's flow pre-processing: extraction of
// the 24 per-packet fields of Table II, their five-number summaries
// (min, Q1, median, Q3, max) over each source's sampled packet sequence —
// a 24×5 = 120-dimensional flow vector — and the training-set-anchored
// normalization (MinMax scaling followed by subtracting the training
// mean) the annotate and update-classifier modules share.
package features

import (
	"fmt"
	"math"

	"exiot/internal/packet"
)

// Layout constants of the paper's feature space.
const (
	// NumFields is the number of per-packet fields (Table II).
	NumFields = 24
	// NumStats is the number of summary statistics per field.
	NumStats = 5
	// Dim is the flow-vector dimensionality (24 × 5 = 120).
	Dim = NumFields * NumStats
)

// Field indices into a per-packet field vector, ordered as in Table II.
const (
	FieldProto = iota
	FieldDstPort
	FieldTotalLength
	FieldTCPOffset
	FieldTCPDataLen
	FieldInterArrival
	FieldTOS
	FieldID
	FieldTTL
	FieldSrcIP
	FieldDstIP
	FieldSrcPort
	FieldSeq
	FieldAckSeq
	FieldReserved
	FieldFlags
	FieldWindow
	FieldUrgent
	FieldOptWScale
	FieldOptMSS
	FieldOptTimestamp
	FieldOptNOP
	FieldOptSACKOK
	FieldOptSACK
)

// FieldNames lists the Table II fields in index order.
var FieldNames = [NumFields]string{
	"protocol", "dst_port", "total_length", "tcp_offset", "tcp_data_length",
	"inter_arrival", "tos", "identification", "ttl", "src_ip", "dst_ip",
	"src_port", "sequence", "ack_sequence", "reserved", "flags",
	"window_size", "urgent_pointer", "opt_wscale", "opt_mss",
	"opt_timestamp", "opt_nop", "opt_sack_permitted", "opt_sack",
}

// StatNames lists the per-field summary statistics.
var StatNames = [NumStats]string{"min", "q1", "median", "q3", "max"}

// FeatureName renders the canonical name of flow-vector dimension i.
func FeatureName(i int) string {
	return FieldNames[i/NumStats] + ":" + StatNames[i%NumStats]
}

// PacketFields extracts the Table II field vector from one packet.
// interArrival is the seconds since the previous packet from the same
// source (0 for the first packet).
func PacketFields(p *packet.Packet, fields *[NumFields]float64, interArrival float64) {
	fields[FieldProto] = float64(p.Proto)
	fields[FieldDstPort] = float64(p.DstPort)
	fields[FieldTotalLength] = float64(p.TotalLength)
	fields[FieldTCPOffset] = float64(p.DataOffset)
	fields[FieldTCPDataLen] = float64(p.TCPDataLength())
	fields[FieldInterArrival] = interArrival
	fields[FieldTOS] = float64(p.TOS)
	fields[FieldID] = float64(p.ID)
	fields[FieldTTL] = float64(p.TTL)
	fields[FieldSrcIP] = float64(p.SrcIP)
	fields[FieldDstIP] = float64(p.DstIP)
	fields[FieldSrcPort] = float64(p.SrcPort)
	fields[FieldSeq] = float64(p.Seq)
	fields[FieldAckSeq] = float64(p.Ack)
	fields[FieldReserved] = float64(p.Reserved)
	fields[FieldFlags] = float64(p.Flags)
	fields[FieldWindow] = float64(p.Window)
	fields[FieldUrgent] = float64(p.Urgent)
	fields[FieldOptWScale] = float64(p.Options.WScale)
	fields[FieldOptMSS] = float64(p.Options.MSS)
	fields[FieldOptTimestamp] = b2f(p.Options.Timestamp)
	fields[FieldOptNOP] = b2f(p.Options.NOP)
	fields[FieldOptSACKOK] = b2f(p.Options.SACKPermitted)
	fields[FieldOptSACK] = b2f(p.Options.SACK)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// RawVector computes the un-normalized 120-dimensional flow vector from a
// sampled packet sequence: for each Table II field, the min, first
// quartile, median, third quartile, and max across the sample.
func RawVector(sample []packet.Packet) ([]float64, error) {
	var s Scratch
	return s.RawVectorInto(nil, sample)
}

// Scratch holds the reusable working buffers of flow-vector extraction:
// one column of order keys per field and the buffer rank selection
// scatters into, all in one backing array. A worker that extracts many
// vectors keeps one Scratch and calls RawVectorInto repeatedly; after
// the first call the extraction itself is allocation-free. A Scratch
// must not be shared between goroutines.
type Scratch struct {
	columns [NumFields][]uint64
	buf     []uint64
}

// RawVectorInto computes the flow vector into dst (grown when its
// capacity is below Dim) and returns it. The result is identical to
// RawVector's; only the allocation behaviour differs. The returned slice
// aliases dst, never the scratch buffers, so it is safe to retain.
func (s *Scratch) RawVectorInto(dst []float64, sample []packet.Packet) ([]float64, error) {
	if len(sample) == 0 {
		return nil, fmt.Errorf("features: empty sample")
	}
	n := len(sample)
	if cap(s.buf) < n {
		// One backing array for every buffer: warming a scratch costs one
		// allocation, not one per field.
		backing := make([]uint64, (NumFields+1)*n)
		for f := range s.columns {
			s.columns[f] = backing[f*n : f*n : (f+1)*n]
		}
		s.buf = backing[NumFields*n : NumFields*n : (NumFields+1)*n]
	}
	for f := range s.columns {
		s.columns[f] = s.columns[f][:n]
	}
	var fields [NumFields]float64
	var lo, hi [NumFields]uint64
	for f := range lo {
		lo[f] = math.MaxUint64
	}
	for i := range sample {
		ia := 0.0
		if i > 0 {
			ia = sample[i].Timestamp.Sub(sample[i-1].Timestamp).Seconds()
			if ia < 0 {
				return nil, fmt.Errorf("features: sample out of order at %d", i)
			}
		}
		PacketFields(&sample[i], &fields, ia)
		for f := 0; f < NumFields; f++ {
			k := orderKey(fields[f])
			s.columns[f][i] = k
			lo[f] = min(lo[f], k)
			hi[f] = max(hi[f], k)
		}
	}

	if cap(dst) < Dim {
		dst = make([]float64, 0, Dim)
	}
	dst = dst[:0]
	for f := range s.columns {
		dst = summarize(dst, s.columns[f], s.buf[:n], lo[f], hi[f])
	}
	return dst, nil
}

// Normalizer anchors feature scaling to a training dataset: MinMax
// scaling by the training min/max, then subtraction of the training mean
// (of the scaled values), per the paper's pre-processing step.
type Normalizer struct {
	Min  []float64 `json:"min"`
	Max  []float64 `json:"max"`
	Mean []float64 `json:"mean"`
}

// FitNormalizer learns scaling parameters from raw training vectors.
func FitNormalizer(raw [][]float64) (*Normalizer, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("features: no vectors to fit normalizer")
	}
	dim := len(raw[0])
	n := &Normalizer{
		Min:  make([]float64, dim),
		Max:  make([]float64, dim),
		Mean: make([]float64, dim),
	}
	copy(n.Min, raw[0])
	copy(n.Max, raw[0])
	for _, v := range raw {
		if len(v) != dim {
			return nil, fmt.Errorf("features: inconsistent vector length %d vs %d", len(v), dim)
		}
		for j, x := range v {
			if x < n.Min[j] {
				n.Min[j] = x
			}
			if x > n.Max[j] {
				n.Max[j] = x
			}
		}
	}
	// Mean of the scaled values.
	for _, v := range raw {
		for j, x := range v {
			n.Mean[j] += n.scale(j, x)
		}
	}
	for j := range n.Mean {
		n.Mean[j] /= float64(len(raw))
	}
	return n, nil
}

func (n *Normalizer) scale(j int, x float64) float64 {
	span := n.Max[j] - n.Min[j]
	if span == 0 {
		return 0
	}
	return (x - n.Min[j]) / span
}

// Apply normalizes one raw vector in place-safe fashion (a new slice is
// returned). Values outside the training range extrapolate linearly, as
// MinMax scaling does at inference time.
func (n *Normalizer) Apply(raw []float64) []float64 {
	return n.ApplyInto(nil, raw)
}

// ApplyInto normalizes raw into dst (grown when too small) and returns
// it, letting hot paths reuse a scratch buffer instead of allocating per
// flow. dst may not alias raw.
func (n *Normalizer) ApplyInto(dst, raw []float64) []float64 {
	if cap(dst) < len(raw) {
		dst = make([]float64, len(raw))
	}
	dst = dst[:len(raw)]
	for j, x := range raw {
		dst[j] = n.scale(j, x) - n.Mean[j]
	}
	return dst
}

// ApplyAll normalizes a batch of raw vectors.
func (n *Normalizer) ApplyAll(raw [][]float64) [][]float64 {
	out := make([][]float64, len(raw))
	for i, v := range raw {
		out[i] = n.Apply(v)
	}
	return out
}
