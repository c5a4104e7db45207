// Package simnettest cuts simulated telescope traffic into the per-source
// samples the back half summarizes, for tests and benchmarks.
package simnettest

import (
	"slices"
	"time"

	"exiot/internal/packet"
	"exiot/internal/simnet"
)

// SampleSize is the sampler's sample size: Flows keeps at most this many
// packets of each source per hour.
const SampleSize = 200

// Flows generates the first hours of the default world for seed and
// returns its traffic as per-source flows of at most SampleSize packets,
// one flow per source and hour, in hour-then-address order.
func Flows(seed int64, hours int) [][]packet.Packet {
	w := simnet.NewWorld(simnet.DefaultConfig(seed))
	var flows [][]packet.Packet
	for h := 0; h < hours; h++ {
		bySrc := map[packet.IP][]packet.Packet{}
		for _, p := range w.GenerateHour(w.Start().Add(time.Duration(h) * time.Hour)) {
			if len(bySrc[p.SrcIP]) < SampleSize {
				bySrc[p.SrcIP] = append(bySrc[p.SrcIP], p)
			}
		}
		srcs := make([]packet.IP, 0, len(bySrc))
		for src := range bySrc {
			srcs = append(srcs, src)
		}
		slices.Sort(srcs)
		for _, src := range srcs {
			flows = append(flows, bySrc[src])
		}
	}
	return flows
}
