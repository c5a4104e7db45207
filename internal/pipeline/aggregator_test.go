package pipeline

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"exiot/internal/packet"
	"exiot/internal/telemetry"
	"exiot/internal/trw"
	"exiot/internal/wire"
)

// shardStream builds the frame sequence one ingest shard would send.
type shardStream struct {
	t             testing.TB
	shard, shards int
	seq           uint64
	frames        []wire.Frame
}

func newShardStream(t testing.TB, shard, shards int) *shardStream {
	return &shardStream{t: t, shard: shard, shards: shards}
}

func (ss *shardStream) event(epoch int64, e SamplerEvent) {
	ss.t.Helper()
	kind, payload, err := AppendEncodeEvent(nil, e)
	if err != nil {
		ss.t.Fatal(err)
	}
	ss.push(kind, epoch, 0, payload)
}

func (ss *shardStream) barrier(epoch int64, final bool) {
	var flags uint8
	if final {
		flags = wire.FlagFinal
	}
	ss.push(wire.KindHourEnd, epoch, flags, nil)
}

func (ss *shardStream) push(kind wire.Kind, epoch int64, flags uint8, payload []byte) {
	ss.seq++
	ss.frames = append(ss.frames, wire.Frame{
		Seq:        ss.seq,
		Kind:       kind,
		Payload:    payload,
		Version:    wire.Version2,
		Flags:      flags,
		ShardID:    uint16(ss.shard),
		ShardCount: uint16(ss.shards),
		HourEpoch:  epoch,
	})
}

func aggFlowEnd(ip uint32, at time.Time) SamplerEvent {
	return SamplerEvent{
		Kind:       SamplerFlowEnd,
		IP:         packet.IP(ip),
		FirstSeen:  at.Add(-10 * time.Minute),
		DetectedAt: at.Add(-9 * time.Minute),
		LastSeen:   at,
		TraceID:    1,
	}
}

func aggReport(sec time.Time, total int, ports map[uint16]int) SamplerEvent {
	return SamplerEvent{Kind: SamplerReport, Report: &trw.SecondReport{
		Second: sec, Total: total, TCP: total, PortPackets: ports,
	}}
}

// mergeCapture records everything an aggregator releases downstream:
// ats holds the hour each event was filed under.
type mergeCapture struct {
	events []SamplerEvent
	ats    []time.Time
	hours  []time.Time
	finals []bool
}

func captureAggregator(shards int, health *telemetry.Health) (*Aggregator, *mergeCapture) {
	cap := &mergeCapture{}
	agg := NewAggregator(AggregatorConfig{
		Shards: shards,
		Emit: func(e SamplerEvent, hourEnd time.Time) {
			cap.events = append(cap.events, e)
			cap.ats = append(cap.ats, hourEnd)
		},
		OnHourMerged: func(hourEnd time.Time, final bool) {
			cap.hours = append(cap.hours, hourEnd)
			cap.finals = append(cap.finals, final)
		},
		Health: health,
	})
	return agg, cap
}

// clusterFrames synthesizes a 3-shard, 2-hour cluster conversation with
// deliberate report gaps and overlaps, plus the final-flush pseudo-hour.
func clusterFrames(t testing.TB) ([]*shardStream, time.Time) {
	t.Helper()
	const shards = 3
	hour := time.Date(2021, 4, 8, 13, 0, 0, 0, time.UTC)
	h1, h2 := hour.Add(time.Hour), hour.Add(2*time.Hour)
	e1, e2 := h1.Unix(), h2.Unix()
	eFlush := h2.Add(time.Hour).Unix()

	ss := make([]*shardStream, shards)
	for i := range ss {
		ss[i] = newShardStream(t, i, shards)
	}
	// Hour 1: shard 0 reports seconds 0 and 4 (a gap the merge must
	// zero-fill), shard 1 second 2, shard 2 also second 2 (the merge must
	// sum both). Shards 0 and 2 each end a flow.
	ss[0].event(e1, aggReport(hour, 10, map[uint16]int{23: 10}))
	ss[0].event(e1, aggReport(hour.Add(4*time.Second), 5, map[uint16]int{80: 5}))
	ss[0].event(e1, aggFlowEnd(0x0A000001, hour.Add(30*time.Minute)))
	ss[1].event(e1, aggReport(hour.Add(2*time.Second), 7, map[uint16]int{23: 3}))
	ss[2].event(e1, aggReport(hour.Add(2*time.Second), 2, map[uint16]int{2323: 2}))
	ss[2].event(e1, aggFlowEnd(0x0A000002, hour.Add(45*time.Minute)))
	for i := range ss {
		ss[i].barrier(e1, false)
	}
	// Hour 2: shard 1 is event-free (barrier-only hours still close).
	ss[0].event(e2, aggReport(h1.Add(time.Second), 4, nil))
	ss[2].event(e2, aggFlowEnd(0x0A000003, h1.Add(5*time.Minute)))
	for i := range ss {
		ss[i].barrier(e2, false)
	}
	// Final flush pseudo-hour: flow ends only, flagged final everywhere.
	ss[0].event(eFlush, aggFlowEnd(0x0A000004, h2))
	for i := range ss {
		ss[i].barrier(eFlush, true)
	}
	return ss, hour
}

func ingestAll(t testing.TB, agg *Aggregator, frames []wire.Frame) {
	t.Helper()
	for _, f := range frames {
		if err := agg.Ingest(f); err != nil {
			t.Fatal(err)
		}
	}
}

func flatten(ss []*shardStream) []wire.Frame {
	var all []wire.Frame
	for _, s := range ss {
		all = append(all, s.frames...)
	}
	return all
}

// TestAggregatorMergeContent checks the merged stream itself: summed
// per-second reports, zero-filled gaps with the nil-map convention, and
// the hour each event is filed under — the final flush under the last
// real hour, not its own barrier epoch.
func TestAggregatorMergeContent(t *testing.T) {
	ss, hour := clusterFrames(t)
	agg, cap := captureAggregator(3, telemetry.NewHealth())
	ingestAll(t, agg, flatten(ss))

	if len(cap.hours) != 3 {
		t.Fatalf("merged %d hours, want 3", len(cap.hours))
	}
	for i, want := range []time.Time{hour.Add(time.Hour), hour.Add(2 * time.Hour), hour.Add(2 * time.Hour)} {
		if got := cap.hours[i]; !got.Equal(want) {
			t.Errorf("merged hour %d filed under %v, want %v", i, got, want)
		}
	}
	if cap.finals[0] || cap.finals[1] || !cap.finals[2] {
		t.Errorf("final flags %v, want [false false true]", cap.finals)
	}

	// Hour 1 reports: seconds 0..4, gaps zero-filled, second 2 summed.
	var reps []*trw.SecondReport
	for _, e := range cap.events {
		if e.Kind == SamplerReport && !e.Report.Second.Before(hour) && e.Report.Second.Before(hour.Add(time.Hour)) {
			reps = append(reps, e.Report)
		}
	}
	if len(reps) != 5 {
		t.Fatalf("hour 1 merged into %d reports, want 5 (seconds 0-4)", len(reps))
	}
	wantTotals := []int{10, 0, 9, 0, 5}
	for i, rep := range reps {
		if !rep.Second.Equal(hour.Add(time.Duration(i) * time.Second)) {
			t.Errorf("report %d second %v, want offset %ds", i, rep.Second, i)
		}
		if rep.Total != wantTotals[i] {
			t.Errorf("second %d total %d, want %d", i, rep.Total, wantTotals[i])
		}
	}
	if reps[1].PortPackets != nil || reps[3].PortPackets != nil {
		t.Error("gap-filled seconds must keep the nil port-map convention")
	}
	if want := map[uint16]int{23: 3, 2323: 2}; !reflect.DeepEqual(reps[2].PortPackets, want) {
		t.Errorf("summed second 2 ports %v, want %v", reps[2].PortPackets, want)
	}

	// Every event of one hour carries that hour's end; the flush's flow
	// end (the last event) carries the last real hour's.
	wantAt := hour.Add(time.Hour)
	for i, at := range cap.ats {
		if at.Before(wantAt) {
			t.Fatalf("event %d filed under %v, before the first hour's %v", i, at, wantAt)
		}
	}
	if !cap.ats[0].Equal(wantAt) {
		t.Errorf("first event filed under %v, want %v", cap.ats[0], wantAt)
	}
	if last := cap.ats[len(cap.ats)-1]; !last.Equal(hour.Add(2 * time.Hour)) {
		t.Errorf("final flush filed under %v, want the last hour's end %v", last, hour.Add(2*time.Hour))
	}
	if agg.PendingHours() != 0 {
		t.Errorf("PendingHours() = %d after full drain, want 0", agg.PendingHours())
	}
}

// FuzzAggregatorInterleave proves determinism under what the transport
// can do to a shard's stream: shards deliver in any interleaving, and a
// shard's connection drops and replays from an earlier frame, but each
// shard's frames keep the order they were sent in. Each schedule byte
// picks a shard (byte mod 3) and delivers its next frame; a byte of 0xC0
// or more instead drops that shard's connection, which replays from 1–8
// frames back. After the schedule every shard delivers the rest. The
// merged events, hour stamps and final flags must equal the in-order
// merge, with no frame refused.
func FuzzAggregatorInterleave(f *testing.F) {
	for trial := int64(0); trial < 8; trial++ {
		schedule := make([]byte, 64)
		rand.New(rand.NewSource(trial)).Read(schedule)
		f.Add(schedule)
	}
	ss, _ := clusterFrames(f)
	ref, refCap := captureAggregator(3, telemetry.NewHealth())
	ingestAll(f, ref, flatten(ss))

	f.Fuzz(func(t *testing.T, schedule []byte) {
		agg, cap := captureAggregator(3, telemetry.NewHealth())
		next := make([]int, len(ss))
		deliver := func(shard int) {
			if frames := ss[shard].frames; next[shard] < len(frames) {
				if err := agg.Ingest(frames[next[shard]]); err != nil {
					t.Fatalf("shard %d frame %d: %v", shard, next[shard], err)
				}
				next[shard]++
			}
		}
		for _, b := range schedule {
			shard := int(b) % len(ss)
			if b >= 0xC0 {
				next[shard] = max(0, next[shard]-int(b&7)-1)
				continue
			}
			deliver(shard)
		}
		for shard, s := range ss {
			for next[shard] < len(s.frames) {
				deliver(shard)
			}
		}
		if !reflect.DeepEqual(refCap.events, cap.events) {
			t.Fatal("interleaved delivery with replays diverged from the in-order merge")
		}
		if !reflect.DeepEqual(refCap.ats, cap.ats) || !reflect.DeepEqual(refCap.finals, cap.finals) {
			t.Fatal("availability stamps or final flags diverged")
		}
		if agg.PendingHours() != 0 {
			t.Errorf("PendingHours() = %d after every frame, want 0", agg.PendingHours())
		}
	})
}

// gapStream is shard 0 of 1's stream of 20,000 frames, numbered from
// first: eight hours of 2,499 per-second reports, each hour closed by its
// barrier, the last one final.
func gapStream(t *testing.T, first uint64) []wire.Frame {
	ss := newShardStream(t, 0, 1)
	ss.seq = first - 1
	start := time.Date(2021, 4, 8, 0, 0, 0, 0, time.UTC)
	for h := 0; h < 8; h++ {
		hour := start.Add(time.Duration(h) * time.Hour)
		epoch := hour.Add(time.Hour).Unix()
		for sec := 0; sec < 2499; sec++ {
			ss.event(epoch, aggReport(hour.Add(time.Duration(sec)*time.Second), 1+sec%7, map[uint16]int{23: 1}))
		}
		ss.barrier(epoch, h == 7)
	}
	return ss.frames
}

// liveHeap returns the bytes of live heap objects after two forced
// collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestAggregatorRefusesGap: a receiver restarted under a live sampler
// has the shard back at sequence 1 while the sampler sends from 5001.
// Every one of those frames must be refused and none kept, and the
// shard's stream from sequence 1 must then merge as if nothing had come
// before it. A frame out of its shard's hour order is refused the same
// way.
func TestAggregatorRefusesGap(t *testing.T) {
	ref, refCap := captureAggregator(1, telemetry.NewHealth())
	ingestAll(t, ref, gapStream(t, 1))

	ahead, fromOne := gapStream(t, 5001), gapStream(t, 1)
	agg, cap := captureAggregator(1, telemetry.NewHealth())
	before := liveHeap()
	refused := 0
	for _, f := range ahead {
		if agg.Ingest(f) != nil {
			refused++
		}
	}
	held := liveHeap() - before
	runtime.KeepAlive(ahead)
	if refused != len(ahead) {
		t.Errorf("refused %d of %d frames past a sequence gap", refused, len(ahead))
	}
	if n := agg.PendingHours(); n != 0 {
		t.Errorf("PendingHours() = %d after a refused stream, want 0", n)
	}
	t.Logf("%d frames past a gap left %d B of live heap", len(ahead), held)
	if held > 64<<10 {
		t.Errorf("%d frames past a gap left %d B of live heap, over 64 KB", len(ahead), held)
	}
	ingestAll(t, agg, fromOne)
	if !reflect.DeepEqual(refCap, cap) {
		t.Error("the stream from sequence 1 merged differently after the refused one")
	}

	hourEnd := time.Date(2021, 4, 8, 14, 0, 0, 0, time.UTC)
	e1, e2 := hourEnd.Unix(), hourEnd.Add(time.Hour).Unix()
	honest := newShardStream(t, 0, 1)
	honest.event(e1, aggFlowEnd(0x0A000001, hourEnd.Add(-time.Minute)))
	honest.barrier(e1, false)
	honest.event(e2, aggFlowEnd(0x0A000002, hourEnd.Add(time.Minute)))
	honest.barrier(e2, true)
	ref, refCap = captureAggregator(1, telemetry.NewHealth())
	ingestAll(t, ref, honest.frames)

	renumber := func(f wire.Frame, seq uint64) wire.Frame { f.Seq = seq; return f }
	for _, row := range []struct {
		name string
		at   int // honest frames delivered first
		bad  wire.Frame
	}{
		{"an event for the next hour before this hour's barrier", 1, renumber(honest.frames[2], 2)},
		{"an event for an hour the shard has closed", 2, renumber(honest.frames[0], 3)},
		{"a barrier for an hour the shard has closed", 2, renumber(honest.frames[1], 3)},
	} {
		agg, cap := captureAggregator(1, telemetry.NewHealth())
		ingestAll(t, agg, honest.frames[:row.at])
		if err := agg.Ingest(row.bad); err == nil {
			t.Errorf("%s: accepted", row.name)
		}
		ingestAll(t, agg, honest.frames[row.at:])
		if !reflect.DeepEqual(refCap, cap) {
			t.Errorf("%s: the refused frame changed the merge", row.name)
		}
	}
}

// TestAggregatorReconnectReplay re-delivers a prefix of one shard's
// stream mid-hour — exactly what the sender's whole-batch replay does
// after a dropped connection — and expects no double-emission.
func TestAggregatorReconnectReplay(t *testing.T) {
	ss, _ := clusterFrames(t)
	ref, refCap := captureAggregator(3, telemetry.NewHealth())
	ingestAll(t, ref, flatten(ss))

	agg, cap := captureAggregator(3, telemetry.NewHealth())
	dupsBefore := clusterDupValue()
	for shard, s := range ss {
		if shard == 0 {
			// First batch lands, connection drops, sender replays the
			// batch and continues.
			cut := len(s.frames) / 2
			ingestAll(t, agg, s.frames[:cut])
			ingestAll(t, agg, s.frames[:cut])
			ingestAll(t, agg, s.frames[cut:])
			continue
		}
		ingestAll(t, agg, s.frames)
	}
	if !reflect.DeepEqual(refCap.events, cap.events) {
		t.Fatal("replayed prefix changed the merged stream")
	}
	replayed := int64(len(ss[0].frames) / 2)
	if got := clusterDupValue() - dupsBefore; got < replayed {
		t.Errorf("duplicate-frame counter rose by %d, want >= %d", got, replayed)
	}
}

func clusterDupValue() int64 { return metClusterDupFrames.Value() }

// TestAggregatorSilentShardStalls holds back one shard's barrier: the
// merge must not deadlock or emit a partial hour, and the stall must
// surface through the cluster-merge health check once the silence
// outlives the merge max age.
func TestAggregatorSilentShardStalls(t *testing.T) {
	ss, hour := clusterFrames(t)
	health := telemetry.NewHealth()
	agg, cap := captureAggregator(3, health)

	// Hour 1 completes everywhere; beyond that shard 2 goes silent.
	e1 := hour.Add(time.Hour).Unix()
	for _, s := range ss {
		for _, f := range s.frames {
			if f.ShardID == 2 && f.HourEpoch != e1 {
				continue
			}
			if err := agg.Ingest(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(cap.hours) != 1 {
		t.Fatalf("merged %d hours with a silent shard, want exactly 1", len(cap.hours))
	}
	for _, e := range cap.events {
		if e.Kind == SamplerReport && !e.Report.Second.Before(hour.Add(time.Hour)) {
			t.Fatalf("event from the unmerged hour leaked: %+v", e)
		}
	}
	if agg.PendingHours() == 0 {
		t.Error("PendingHours() = 0, want held hours behind the silent shard")
	}

	// Right after the last merge the check is healthy; once the silent
	// shard has held the barrier past the max age, /healthz flips.
	if rep := health.Evaluate(time.Now()); !rep.Healthy {
		t.Errorf("healthy cluster reported unhealthy: %+v", rep)
	}
	rep := health.Evaluate(time.Now().Add(clusterMergeMaxAge + time.Minute))
	if rep.Healthy {
		t.Error("stalled merge not reflected in health report")
	}
	found := false
	for _, c := range rep.Components {
		if c.Name == "cluster-merge" && c.Status == "stalled" {
			found = true
		}
	}
	if !found {
		t.Errorf("no stalled cluster-merge component in %+v", rep.Components)
	}

	// The missing barrier arriving late releases everything held.
	for _, f := range ss[2].frames {
		if f.HourEpoch == e1 {
			continue
		}
		if err := agg.Ingest(f); err != nil {
			t.Fatal(err)
		}
	}
	if len(cap.hours) != 3 {
		t.Errorf("merged %d hours after the shard recovered, want 3", len(cap.hours))
	}
	if agg.PendingHours() != 0 {
		t.Errorf("PendingHours() = %d after recovery, want 0", agg.PendingHours())
	}
}

// outOfHourReportFrame is shard 0/1's report for a second a decade before
// the hour its frame claims — the input that made the merge's gap fill
// walk ~3×10⁸ seconds.
func outOfHourReportFrame(t *testing.T, epoch int64) wire.Frame {
	ss := newShardStream(t, 0, 1)
	ss.event(epoch, aggReport(time.Unix(epoch, 0).UTC().AddDate(-10, 0, 0), 1, nil))
	return ss.frames[0]
}

// TestAggregatorRejectsOutOfHourReports: the merge zero-fills between an
// hour's earliest and latest report second, and those seconds come off
// the wire — so a report must sit on a whole second of its own frame's
// hour, or two frames could make one merge allocate without bound.
func TestAggregatorRejectsOutOfHourReports(t *testing.T) {
	hourEnd := time.Date(2021, 4, 8, 14, 0, 0, 0, time.UTC)
	epoch := hourEnd.Unix()
	agg, cap := captureAggregator(1, telemetry.NewHealth())

	if err := agg.Ingest(outOfHourReportFrame(t, epoch)); err == nil {
		t.Fatal("report a decade before its frame's hour accepted")
	}
	for name, sec := range map[string]time.Time{
		"the hour's end (next hour's first second)": hourEnd,
		"one second before the hour":                hourEnd.Add(-time.Hour - time.Second),
		"a fractional second":                       hourEnd.Add(-time.Minute + time.Millisecond),
	} {
		ss := newShardStream(t, 0, 1)
		ss.event(epoch, aggReport(sec, 1, nil))
		if err := agg.Ingest(ss.frames[0]); err == nil {
			t.Errorf("report for %s accepted", name)
		}
	}

	// None of the rejected frames was applied: sequence 1 is still open,
	// and the hour's first and last seconds are accepted and fill to
	// exactly one hour of reports.
	ss := newShardStream(t, 0, 1)
	ss.event(epoch, aggReport(hourEnd.Add(-time.Hour), 3, nil))
	ss.event(epoch, aggReport(hourEnd.Add(-time.Second), 4, nil))
	ss.barrier(epoch, true)
	ingestAll(t, agg, ss.frames)
	if len(cap.events) != 3600 {
		t.Fatalf("merged %d events, want 3600 (one report per second of the hour)", len(cap.events))
	}
	if first, last := cap.events[0].Report, cap.events[3599].Report; first.Total != 3 || last.Total != 4 {
		t.Errorf("edge seconds merged to totals %d and %d, want 3 and 4", first.Total, last.Total)
	}
}

// TestAggregatorRejectsBadFrames covers the guard rails: frames that did
// not come off the wire (Version 0, the legacy JSON wrapping) and
// mismatched shard topologies are errors, not corruption.
func TestAggregatorRejectsBadFrames(t *testing.T) {
	agg, _ := captureAggregator(3, telemetry.NewHealth())
	if err := agg.Ingest(wire.Frame{Seq: 1, Kind: wire.KindReport}); err == nil {
		t.Error("Version 0 frame accepted by the merge")
	}
	if err := agg.Ingest(wire.Frame{Seq: 1, Kind: wire.KindHourEnd, Version: wire.Version2, ShardID: 0, ShardCount: 2}); err == nil {
		t.Error("frame with wrong shard count accepted")
	}
	if err := agg.Ingest(wire.Frame{Seq: 1, Kind: wire.KindHourEnd, Version: wire.Version2, ShardID: 3, ShardCount: 3}); err == nil {
		t.Error("frame with out-of-range shard id accepted")
	}
}
