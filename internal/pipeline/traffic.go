package pipeline

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"exiot/internal/api"
	"exiot/internal/trw"
)

// TrafficHour aggregates the flow-detection module's per-second reports
// into one hour of telescope traffic statistics — what the paper's
// receiver writes to MongoDB and the front-end charts. The type lives in
// the api package (the serving boundary); this alias keeps pipeline call
// sites readable.
type TrafficHour = api.TrafficHour

// trafficStats accumulates report messages into hourly buckets.
type trafficStats struct {
	mu    sync.Mutex
	hours map[time.Time]*TrafficHour
	// oldestEnd is the unix-nano end of the earliest hour held (0 when
	// none): retire's lock-free test for whether anything has lapsed.
	oldestEnd atomic.Int64
}

func newTrafficStats() *trafficStats {
	return &trafficStats{hours: make(map[time.Time]*TrafficHour)}
}

// add folds one per-second report into its hour bucket.
func (t *trafficStats) add(rep *trw.SecondReport) {
	hour := rep.Second.Truncate(time.Hour)
	t.mu.Lock()
	defer t.mu.Unlock()
	b, ok := t.hours[hour]
	if !ok {
		b = &TrafficHour{Hour: hour, TopPorts: make(map[uint16]int)}
		t.hours[hour] = b
		t.track(hour)
	}
	b.Total += int64(rep.Total)
	b.TCP += int64(rep.TCP)
	b.UDP += int64(rep.UDP)
	b.ICMP += int64(rep.ICMP)
	b.Backscatter += int64(rep.Backscatter)
	b.NewScanFlows += int64(rep.NewScanFlows)
	if rep.Total > b.PeakPPS {
		b.PeakPPS = rep.Total
	}
	b.Seconds++
	for port, n := range rep.PortPackets {
		b.TopPorts[port] += n
	}
}

// track notes that hour is held. Call it with mu held.
func (t *trafficStats) track(hour time.Time) {
	if end := hour.Add(time.Hour).UnixNano(); t.oldestEnd.Load() == 0 || end < t.oldestEnd.Load() {
		t.oldestEnd.Store(end)
	}
}

// retire drops the hours that end at or before cutoff, the historical
// database's lapse. It runs on every event and takes no lock until the
// oldest hour is due.
func (t *trafficStats) retire(cutoff time.Time) {
	if end := t.oldestEnd.Load(); end == 0 || end > cutoff.UnixNano() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.oldestEnd.Store(0)
	for hour := range t.hours {
		if hour.Add(time.Hour).After(cutoff) {
			t.track(hour)
		} else {
			delete(t.hours, hour)
		}
	}
}

// snapshot returns the hourly buckets sorted by hour, trimming each
// hour's port map to its top n entries.
func (t *trafficStats) snapshot(topPorts int) []TrafficHour {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TrafficHour, 0, len(t.hours))
	for _, b := range t.hours {
		cp := *b
		cp.TopPorts = trimPortMap(b.TopPorts, topPorts)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Hour.Before(out[j].Hour) })
	return out
}

// export returns every hour bucket untrimmed (full port maps), sorted
// by hour — the lossless form snapshots persist.
func (t *trafficStats) export() []TrafficHour {
	return t.snapshot(0)
}

// restore replaces the hour buckets with an exported state.
func (t *trafficStats) restore(hours []TrafficHour) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hours = make(map[time.Time]*TrafficHour, len(hours))
	t.oldestEnd.Store(0)
	for _, h := range hours {
		cp := h
		cp.TopPorts = make(map[uint16]int, len(h.TopPorts))
		for k, v := range h.TopPorts {
			cp.TopPorts[k] = v
		}
		t.hours[h.Hour] = &cp
		t.track(h.Hour)
	}
}

func trimPortMap(m map[uint16]int, n int) map[uint16]int {
	if n <= 0 || len(m) <= n {
		cp := make(map[uint16]int, len(m))
		for k, v := range m {
			cp[k] = v
		}
		return cp
	}
	type kv struct {
		port uint16
		n    int
	}
	items := make([]kv, 0, len(m))
	for port, cnt := range m {
		items = append(items, kv{port, cnt})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].n != items[j].n {
			return items[i].n > items[j].n
		}
		return items[i].port < items[j].port
	})
	cp := make(map[uint16]int, n)
	for _, it := range items[:n] {
		cp[it.port] = it.n
	}
	return cp
}
