package trw

import "exiot/internal/packet"

// ShardIndex spreads the 32-bit source address over n shards with a
// Fibonacci multiplicative hash, so adjacent addresses (a scanning /24,
// say) do not pile onto one shard. It is exported because it defines
// shard *ownership* for the whole system: a multi-node telescope
// deployment partitions source space with it (`flowsampler -shard i/N`
// keeps exactly the packets where ShardIndex(src, N) == i), which is
// what makes the cluster merge byte-identical to a single-node run.
func ShardIndex(ip packet.IP, n int) int {
	h := uint64(uint32(ip)) * 0x9E3779B97F4A7C15
	return int((h >> 32) % uint64(n))
}

// ReportSum merges the per-second reports of one hour's partitions — the
// ingest nodes of a cluster — back into the reports one detector over
// the whole telescope would emit.
// Every partition's detector counts only its own slice of the source
// space, so a second's merged report is the field-wise sum of the
// partitions' reports for it (commutative: arrival order is irrelevant),
// and a second inside the hour's span that no partition reported is a
// zero report, exactly like a serial detector crossing a quiet second.
// The zero value is ready to use; it is not safe for concurrent use.
type ReportSum struct {
	bySec    map[int64]*SecondReport
	min, max int64 // span of seconds added since the last Drain (unix nanos)
}

// Add folds r into the running sum for its second. r is not retained.
func (a *ReportSum) Add(r *SecondReport) {
	sec := r.Second.UnixNano()
	if a.bySec == nil {
		a.bySec = make(map[int64]*SecondReport)
	}
	if len(a.bySec) == 0 {
		a.min, a.max = sec, sec
	} else {
		a.min, a.max = min(a.min, sec), max(a.max, sec)
	}
	dst := a.bySec[sec]
	if dst == nil {
		dst = &SecondReport{Second: r.Second}
		a.bySec[sec] = dst
	}
	dst.Total += r.Total
	dst.TCP += r.TCP
	dst.UDP += r.UDP
	dst.ICMP += r.ICMP
	dst.Backscatter += r.Backscatter
	dst.NewScanFlows += r.NewScanFlows
	// A second without port activity keeps its nil map.
	if n := len(r.PortPackets); n > 0 && dst.PortPackets == nil {
		dst.PortPackets = make(map[uint16]int, n)
	}
	for port, n := range r.PortPackets {
		dst.PortPackets[port] += n
	}
}

// Drain hands emit the merged report of every second from the earliest
// to the latest added, ascending, and resets the accumulator. The
// reports are freshly allocated and belong to the caller.
func (a *ReportSum) Drain(emit func(*SecondReport)) {
	if len(a.bySec) == 0 {
		return
	}
	for sec := a.min; sec <= a.max; sec += nanosPerSecond {
		rep := a.bySec[sec]
		if rep == nil {
			rep = &SecondReport{Second: unixTime(sec)}
		}
		emit(rep)
	}
	clear(a.bySec)
}
