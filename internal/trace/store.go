package trace

import (
	"sort"
	"sync"
	"time"
)

// Store retains completed traces: a bounded lock-sharded ring of the
// most recent flows (head sampling) plus, per stage, the N flows with
// the slowest work time ever seen there (tail sampling) — the slow
// outliers an operator is usually hunting survive even when the ring
// has long since rotated past them.
type Store struct {
	shards [storeShards]storeShard

	slowMu  sync.Mutex
	slowest map[string][]slowEntry // stage → ascending by work time
}

// A store keeps the 4096 most recent flows, perShard in each of its
// storeShards rings, and the slowestPerStage slowest flows per stage.
const (
	storeShards     = 16
	perShard        = 4096 / storeShards
	slowestPerStage = 8
)

type storeShard struct {
	mu   sync.Mutex
	ring []*completed
	next int
	byID map[ID]*completed
}

// completed is a finished flow plus its end time.
type completed struct {
	flow *Flow
	end  time.Time
}

type slowEntry struct {
	work time.Duration
	c    *completed
}

// NewStore builds an empty store.
func NewStore() *Store {
	s := &Store{slowest: make(map[string][]slowEntry)}
	for i := range s.shards {
		s.shards[i].byID = make(map[ID]*completed)
	}
	return s
}

// Add records one completed flow. Called by Tracer.Finish.
func (s *Store) Add(f *Flow, end time.Time) {
	c := &completed{flow: f, end: end}
	sh := &s.shards[uint64(f.ID)%storeShards]
	sh.mu.Lock()
	if len(sh.ring) < perShard {
		sh.ring = append(sh.ring, c)
	} else {
		old := sh.ring[sh.next]
		delete(sh.byID, old.flow.ID)
		sh.ring[sh.next] = c
		sh.next = (sh.next + 1) % perShard
	}
	sh.byID[f.ID] = c
	sh.mu.Unlock()

	s.slowMu.Lock()
	for _, sp := range f.Spans() {
		work := sp.Work()
		entries := s.slowest[sp.Stage]
		if len(entries) == slowestPerStage && work <= entries[0].work {
			continue
		}
		entries = append(entries, slowEntry{work: work, c: c})
		sort.Slice(entries, func(i, j int) bool { return entries[i].work < entries[j].work })
		if len(entries) > slowestPerStage {
			entries = entries[1:]
		}
		s.slowest[sp.Stage] = entries
	}
	s.slowMu.Unlock()
}

// Get returns the completed trace for id, checking the recent ring
// first and the slowest-per-stage retention second.
func (s *Store) Get(id ID) (*Detail, bool) {
	sh := &s.shards[uint64(id)%storeShards]
	sh.mu.Lock()
	c := sh.byID[id]
	sh.mu.Unlock()
	if c == nil {
		s.slowMu.Lock()
		for _, entries := range s.slowest {
			for _, e := range entries {
				if e.c.flow.ID == id {
					c = e.c
					break
				}
			}
			if c != nil {
				break
			}
		}
		s.slowMu.Unlock()
	}
	if c == nil {
		return nil, false
	}
	d := c.detail()
	return &d, true
}

// List returns summaries of every retained trace (ring + tail
// retention, deduplicated), sorted by start time then ID so repeated
// calls are stable.
func (s *Store) List() []Summary {
	seen := make(map[ID]*completed)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, c := range sh.ring {
			seen[c.flow.ID] = c
		}
		sh.mu.Unlock()
	}
	s.slowMu.Lock()
	for _, entries := range s.slowest {
		for _, e := range entries {
			seen[e.c.flow.ID] = e.c
		}
	}
	s.slowMu.Unlock()

	out := make([]Summary, 0, len(seen))
	for _, c := range seen {
		out = append(out, c.summary())
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].start.Equal(out[j].start) {
			return out[i].start.Before(out[j].start)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// SlowEntry is one tail-retained trace in a stage's slowest-N list.
type SlowEntry struct {
	// WorkNS is the work time of this flow's slowest span in the stage.
	WorkNS int64 `json:"work_ns"`
	// Trace is the full flow the span belongs to.
	Trace Detail `json:"trace"`
}

// SlowestByStage returns, per stage, up to n tail-retained traces sorted
// slowest first. n <= 0 returns every retained entry. This is the
// console's "slowest traces" panel: the worst flows the pipeline has
// ever processed per stage, regardless of ring rotation.
func (s *Store) SlowestByStage(n int) map[string][]SlowEntry {
	s.slowMu.Lock()
	defer s.slowMu.Unlock()
	out := make(map[string][]SlowEntry, len(s.slowest))
	for stage, entries := range s.slowest {
		limit := len(entries)
		if n > 0 && n < limit {
			limit = n
		}
		list := make([]SlowEntry, 0, limit)
		// entries ascend by work time; emit slowest first.
		for i := len(entries) - 1; i >= len(entries)-limit; i-- {
			e := entries[i]
			list = append(list, SlowEntry{WorkNS: e.work.Nanoseconds(), Trace: e.c.detail()})
		}
		out[stage] = list
	}
	return out
}

// Summary is the /traces list entry for one completed trace.
type Summary struct {
	ID          string `json:"id"`
	IP          string `json:"ip"`
	Kind        string `json:"kind"`
	SpanCount   int    `json:"span_count"`
	TotalNS     int64  `json:"total_ns"`
	SlowestSpan string `json:"slowest_stage,omitempty"`

	start time.Time
}

// SpanJSON is the wire form of one span: offsets are nanoseconds from
// the flow's start so a reader can reconstruct the timeline.
type SpanJSON struct {
	Stage         string `json:"stage"`
	StartOffsetNS int64  `json:"start_offset_ns"`
	QueueWaitNS   int64  `json:"queue_wait_ns"`
	WorkNS        int64  `json:"work_ns"`
	Attrs         []Attr `json:"attrs,omitempty"`
}

// Detail is the /traces/{id} payload: the summary plus every span.
type Detail struct {
	Summary
	Spans []SpanJSON `json:"spans"`
}

func (c *completed) summary() Summary {
	f := c.flow
	spans := f.Spans()
	var slowest string
	var slowestWork time.Duration
	for i := range spans {
		if w := spans[i].Work(); w >= slowestWork {
			slowestWork, slowest = w, spans[i].Stage
		}
	}
	return Summary{
		ID:          f.ID.String(),
		IP:          f.IP,
		Kind:        f.Kind,
		SpanCount:   len(spans),
		TotalNS:     c.end.Sub(f.Start).Nanoseconds(),
		SlowestSpan: slowest,
		start:       f.Start,
	}
}

func (c *completed) detail() Detail {
	f := c.flow
	spans := f.Spans()
	d := Detail{Summary: c.summary(), Spans: make([]SpanJSON, len(spans))}
	for i := range spans {
		sp := &spans[i]
		d.Spans[i] = SpanJSON{
			Stage:         sp.Stage,
			StartOffsetNS: sp.Start.Sub(f.Start).Nanoseconds(),
			QueueWaitNS:   sp.Wait().Nanoseconds(),
			WorkNS:        sp.Work().Nanoseconds(),
			Attrs:         sp.Attrs,
		}
	}
	return d
}
