package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Spans of one hour, request or recovery share Trace.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0: a root
	Trace  int32  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in preallocated memory until the run ends. A nil
// recorder records nothing, so the same wiring runs traced and untraced.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	// stack and trace serve begin/end, which one goroutine drives.
	stack []int32
	trace int32
}

// spanCapacity preallocates a traced run's spans: two per sampler event
// or request and a few per hour stay well under it on every workload.
const spanCapacity = 1 << 19

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// setTrace starts a new trace: later begin calls carry id.
func (r *recorder) setTrace(id int32) {
	if r != nil {
		r.trace = id
	}
}

// begin opens a span under the innermost open one.
func (r *recorder) begin(name string) int32 {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := int32(len(r.spans) + 1)
	var parent int32
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: r.trace, Name: name, Start: now})
	r.stack = append(r.stack, id)
	r.mu.Unlock()
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.stack = r.stack[:len(r.stack)-1]
	r.mu.Unlock()
}

// rename gives a span opened for one purpose the name of what it became.
func (r *recorder) rename(id int32, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[id-1].Name = name
	r.mu.Unlock()
}

// add records a finished span with an explicit parent; safe from any
// goroutine, for code where begin/end's stack does not apply.
func (r *recorder) add(name string, trace, parent int32, start, end time.Time) int32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0)),
	})
	r.mu.Unlock()
	return id
}

// open starts a span with an explicit parent from any goroutine and
// returns its id for close and for children to name as their parent.
func (r *recorder) open(name string, trace, parent int32) int32 {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now, End: now})
	r.mu.Unlock()
	return id
}

// close ends a span that open started.
func (r *recorder) close(id int32) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, index-aligned with spans, each span's duration
// minus the part of it that its child spans cover. Children may overlap
// (concurrent requests under one phase): the covered part is their union,
// clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		self[i] = s.End - s.Start
		kids := children[s.ID]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			from, to := spans[k].Start, spans[k].End
			if from < reach {
				from = reach
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				covered += to - from
				reach = to
			}
		}
		self[i] -= covered
	}
	return self
}

// layerTime is what one span name adds up to over a run.
type layerTime struct {
	Count int
	Total int64 // ns, children included
	Self  int64 // ns, children excluded
}

func sumByName(spans []span) map[string]layerTime {
	self := selfTimes(spans)
	out := make(map[string]layerTime)
	for i := range spans {
		lt := out[spans[i].Name]
		lt.Count++
		lt.Total += spans[i].End - spans[i].Start
		lt.Self += self[i]
		out[spans[i].Name] = lt
	}
	return out
}

// traceFile is what a traced run leaves in bench/out/<workload>.trace.json.
type traceFile struct {
	Env      envStamp `json:"env"`
	Workload string   `json:"workload"`
	Spans    []span   `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
