package pipeline

import (
	"time"

	"exiot/internal/packet"
	"exiot/internal/telemetry"
	"exiot/internal/trace"
	"exiot/internal/trw"
	"exiot/internal/wire"
)

// hourSender is what a Shipper writes to: *wire.Sender, or a stand-in
// that hands frames straight to an Aggregator.
type hourSender interface {
	Queue(kind wire.Kind, hourEpoch int64, payload []byte) error
	Barrier(hourEpoch int64, final bool) error
}

// Shipper is the telescope-node half of the hourly hand-off: per hour it
// keeps this node's source partition (trw.ShardIndex), samples it, ships
// the events under the hour-end epoch and closes the hour with a barrier.
// The final barrier goes out under the epoch after the last hour's, so
// the two cannot collide; the merge files the flush under the last hour.
type Shipper struct {
	sampler             *Sampler
	out                 hourSender
	shardID, shardCount int

	epoch int64           // hour epoch of queued frames
	enc   []byte          // encode scratch
	mine  []packet.Packet // partition scratch
	err   error           // first shipping failure, sticky
	hour  telemetry.Hour  // wire layer call: first shipped event to barrier
}

// layerWire times shipping per hour; items are events.
var layerWire = telemetry.Default().Layer("wire")

// NewShipper builds the node half for partition shardID of shardCount
// (0 of 1 is the whole telescope), shipping to out.
func NewShipper(trwCfg trw.Config, shardID, shardCount int, out hourSender) *Shipper {
	s := &Shipper{out: out, shardID: shardID, shardCount: shardCount}
	s.sampler = NewSampler(trwCfg, 0, s.ship)
	return s
}

func (s *Shipper) ship(e SamplerEvent) {
	s.hour.Add(1)
	var sendStart time.Time
	if e.Trace != nil {
		sendStart = time.Now()
	}
	kind, data, err := AppendEncodeEvent(s.enc[:0], e)
	if err == nil {
		s.enc = data[:0]
		err = s.out.Queue(kind, s.epoch, data)
	}
	if err != nil && s.err == nil {
		s.err = err
	}
	if e.Trace != nil {
		// The receiver re-samples the same ID; this half ends here.
		e.Trace.Span("wire", sendStart, sendStart, trace.Int("bytes", len(data)))
		trace.Default().Finish(e.Trace)
	}
}

// ProcessHour ships the hour starting at hour (pkts is not retained) and
// returns the first shipping failure so far.
func (s *Shipper) ProcessHour(pkts []packet.Packet, hour time.Time) error {
	hourEnd := hour.Add(time.Hour)
	s.epoch = hourEnd.Unix()
	if s.shardCount > 1 {
		s.mine = s.mine[:0]
		for i := range pkts {
			if trw.ShardIndex(pkts[i].SrcIP, s.shardCount) == s.shardID {
				s.mine = append(s.mine, pkts[i])
			}
		}
		pkts = s.mine
	}
	s.sampler.ProcessHour(pkts, hourEnd)
	return s.barrier(false)
}

// Finish ends the live flows at end, the last hour's end, and sends the
// final barrier.
func (s *Shipper) Finish(end time.Time) error {
	s.epoch = end.Add(time.Hour).Unix()
	s.sampler.Flush(end)
	return s.barrier(true)
}

func (s *Shipper) barrier(final bool) error {
	s.hour.Add(0)
	if s.err == nil {
		s.err = s.out.Barrier(s.epoch, final)
	}
	layerWire.Close(&s.hour)
	return s.err
}

// Sampler exposes the node's sampler (detector statistics).
func (s *Shipper) Sampler() *Sampler { return s.sampler }
