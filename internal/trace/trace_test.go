package trace

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"exiot/internal/packet"
)

func testIP(n uint32) packet.IP { return packet.IP(n) }

func TestEventIDDeterministic(t *testing.T) {
	first := time.Date(2023, 4, 1, 12, 0, 0, 0, time.UTC)
	detected := first.Add(90 * time.Second)
	a := EventID(testIP(0x01020304), 1, first, detected)
	b := EventID(testIP(0x01020304), 1, first, detected)
	if a != b {
		t.Fatalf("same inputs produced different IDs: %s vs %s", a, b)
	}
	if a == 0 {
		t.Fatal("ID must never be zero (reserved for untraced)")
	}
	if c := EventID(testIP(0x01020304), 2, first, detected); c == a {
		t.Fatalf("different kind produced the same ID %s", a)
	}
	if c := EventID(testIP(0x01020305), 1, first, detected); c == a {
		t.Fatalf("different IP produced the same ID %s", a)
	}
	if c := EventID(testIP(0x01020304), 1, first.Add(time.Nanosecond), detected); c == a {
		t.Fatalf("different first timestamp produced the same ID %s", a)
	}
	if c := EventID(testIP(0x01020304), 1, first, detected.Add(time.Nanosecond)); c == a {
		t.Fatalf("different second timestamp produced the same ID %s", a)
	}
}

func TestIDStringRoundTrip(t *testing.T) {
	id := EventID(testIP(0xC0A80101), 1, time.Unix(1700000000, 0), time.Unix(1700000042, 0))
	parsed, err := ParseID(id.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed != id {
		t.Fatalf("ParseID(%q) = %s, want %s", id.String(), parsed, id)
	}
	raw, err := json.Marshal(id)
	if err != nil {
		t.Fatal(err)
	}
	var back ID
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Fatalf("JSON round trip: %s != %s", back, id)
	}
	if _, err := ParseID("not-hex"); err == nil {
		t.Fatal("ParseID accepted garbage")
	}
}

func TestSamplingDecision(t *testing.T) {
	tr := NewTracer(NewStore(16, 2))
	if tr.Enabled() {
		t.Fatal("tracer enabled before configuration")
	}
	if f := tr.Sample(ID(4), "a", "batch"); f != nil {
		t.Fatal("disabled tracer sampled a flow")
	}
	tr.SetSampleEvery(1)
	if f := tr.Sample(0, "a", "batch"); f != nil {
		t.Fatal("zero ID must never be sampled")
	}
	if f := tr.Sample(ID(5), "a", "batch"); f == nil {
		t.Fatal("sample-every=1 must trace every event")
	}
	tr.SetSampleEvery(4)
	if f := tr.Sample(ID(8), "a", "batch"); f == nil {
		t.Fatal("id%4==0 must be selected at sample-every=4")
	}
	if f := tr.Sample(ID(9), "a", "batch"); f != nil {
		t.Fatal("id%4!=0 must not be selected at sample-every=4")
	}
}

func TestFlowSpansAndFinish(t *testing.T) {
	store := NewStore(16, 2)
	tr := NewTracer(store)
	tr.SetSampleEvery(1)
	f := tr.Sample(ID(10), "203.0.113.7", "batch")
	t0 := time.Now()
	f.SpanAt("sampler", t0, t0, t0.Add(time.Millisecond), Int("sample_size", 200))
	f.SpanAt("classify", t0.Add(time.Millisecond), t0.Add(2*time.Millisecond), t0.Add(3*time.Millisecond))
	tr.Finish(f)
	tr.Finish(f) // idempotent

	d, ok := store.Get(ID(10))
	if !ok {
		t.Fatal("finished flow missing from store")
	}
	if d.SpanCount != 2 || len(d.Spans) != 2 {
		t.Fatalf("want 2 spans, got %d", len(d.Spans))
	}
	if d.Spans[0].Stage != "sampler" || d.Spans[1].Stage != "classify" {
		t.Fatalf("span order wrong: %+v", d.Spans)
	}
	if d.Spans[1].QueueWaitNS != int64(time.Millisecond) {
		t.Fatalf("classify queue wait = %d ns, want %d", d.Spans[1].QueueWaitNS, time.Millisecond)
	}
	// Spans after Finish are dropped.
	f.Span("late", time.Now(), time.Now())
	if d2, _ := store.Get(ID(10)); d2.SpanCount != 2 {
		t.Fatal("span recorded after Finish")
	}
}

func TestStoreRingBoundAndTailRetention(t *testing.T) {
	// Capacity 16 → 1 per shard; shard count spreads sequential IDs.
	store := NewStore(16, 1)
	base := time.Now()
	var slowID ID
	for i := 1; i <= 200; i++ {
		f := &Flow{ID: ID(i), IP: "ip", Kind: "batch", Start: base}
		work := time.Duration(i) * time.Microsecond
		if i == 3 {
			// One early flow does 10x the work of everything after it:
			// the ring rotates past it but the tail retention keeps it.
			work = 10 * time.Millisecond
			slowID = f.ID
		}
		f.SpanAt("probe", base, base, base.Add(work))
		store.Add(f, base.Add(work))
	}
	if n := store.Len(); n > 16 {
		t.Fatalf("ring holds %d flows, capacity 16", n)
	}
	if _, ok := store.Get(slowID); !ok {
		t.Fatal("slowest-per-stage retention lost the slow outlier")
	}
	list := store.List()
	found := false
	for _, s := range list {
		if s.ID == slowID.String() {
			found = true
			if s.SlowestSpan != "probe" {
				t.Fatalf("slowest span = %q, want probe", s.SlowestSpan)
			}
		}
	}
	if !found {
		t.Fatal("List() missing the tail-retained flow")
	}
}

func TestHTTPEndpoints(t *testing.T) {
	store := NewStore(16, 2)
	f := &Flow{ID: ID(0xabcd), IP: "203.0.113.9", Kind: "batch", Start: time.Now()}
	f.SpanAt("sampler", f.Start, f.Start, f.Start.Add(time.Millisecond), Str("trigger_hour", "2023-04-01T12:00:00Z"))
	store.Add(f, f.Start.Add(time.Millisecond))

	mux := http.NewServeMux()
	store.Register(mux)

	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/traces", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /traces = %d", rr.Code)
	}
	var list struct {
		Count  int       `json:"count"`
		Traces []Summary `json:"traces"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if list.Count != 1 || len(list.Traces) != 1 {
		t.Fatalf("want 1 trace, got %+v", list)
	}

	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/traces/"+ID(0xabcd).String(), nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /traces/{id} = %d: %s", rr.Code, rr.Body)
	}
	var det Detail
	if err := json.Unmarshal(rr.Body.Bytes(), &det); err != nil {
		t.Fatal(err)
	}
	if det.IP != "203.0.113.9" || len(det.Spans) != 1 || det.Spans[0].Stage != "sampler" {
		t.Fatalf("unexpected detail: %+v", det)
	}

	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/traces/zzzz", nil))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("bad id = %d, want 400", rr.Code)
	}
	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/traces/00000000000000ff", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("missing id = %d, want 404", rr.Code)
	}
}

func TestSlowTraceLogged(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(NewStore(16, 2))
	tr.SetSampleEvery(1)
	tr.SetSlowThreshold(time.Nanosecond)
	tr.SetLogger(slog.New(slog.NewTextHandler(&buf, nil)))
	f := tr.Sample(ID(77), "198.51.100.1", "batch")
	f.SpanAt("probe", f.Start, f.Start, f.Start.Add(time.Millisecond))
	time.Sleep(time.Microsecond)
	tr.Finish(f)
	out := buf.String()
	if !strings.Contains(out, "slow trace") || !strings.Contains(out, ID(77).String()) {
		t.Fatalf("slow log missing or incomplete: %q", out)
	}
	if !strings.Contains(out, "slowest_stage=probe") {
		t.Fatalf("slow log missing slowest stage: %q", out)
	}
}

// TestUntracedPathZeroAlloc proves tracing off costs nothing on the hot
// path: the sampling check, the nil-flow span calls, and Finish(nil)
// must not allocate.
func TestUntracedPathZeroAlloc(t *testing.T) {
	tr := NewTracer(NewStore(16, 2)) // sampling off
	var f *Flow
	now := time.Now()
	if n := testing.AllocsPerRun(1000, func() {
		if g := tr.Sample(ID(123), "ip", "batch"); g != nil {
			t.Fatal("sampled while disabled")
		}
		f.Span("classify", now, now)
		f.SpanAt("probe", now, now, now)
		tr.Finish(f)
	}); n != 0 {
		t.Fatalf("untraced path allocates %.1f objects per event, want 0", n)
	}
}

// BenchmarkTraceOverhead compares the event hot path with tracing off
// (the production default) and fully on; CI prints the ratio.
func BenchmarkTraceOverhead(b *testing.B) {
	hour := time.Date(2023, 4, 1, 12, 0, 0, 0, time.UTC)
	b.Run("untraced", func(b *testing.B) {
		tr := NewTracer(NewStore(4096, 8))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			id := EventID(testIP(uint32(i)), 1, hour, hour.Add(time.Duration(i)))
			f := tr.Sample(id, "ip", "batch")
			f.Span("sampler", hour, hour)
			tr.Finish(f)
		}
	})
	b.Run("traced", func(b *testing.B) {
		tr := NewTracer(NewStore(4096, 8))
		tr.SetSampleEvery(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			id := EventID(testIP(uint32(i)), 1, hour, hour.Add(time.Duration(i)))
			f := tr.Sample(id, "ip", "batch")
			f.Span("sampler", hour, hour)
			tr.Finish(f)
		}
	})
}

func TestSlowestByStage(t *testing.T) {
	store := NewStore(64, 3)
	base := time.Now()
	for i := 1; i <= 10; i++ {
		f := &Flow{ID: ID(i), IP: "ip", Kind: "batch", Start: base}
		f.SpanAt("probe", base, base, base.Add(time.Duration(i)*time.Millisecond))
		if i%2 == 0 {
			f.SpanAt("classify", base, base, base.Add(time.Duration(i)*time.Microsecond))
		}
		store.Add(f, base.Add(time.Duration(i)*time.Millisecond))
	}

	slow := store.SlowestByStage(2)
	probe := slow["probe"]
	if len(probe) != 2 {
		t.Fatalf("probe entries = %d, want 2", len(probe))
	}
	// Slowest first: flows 10 then 9.
	if probe[0].WorkNS != int64(10*time.Millisecond) || probe[1].WorkNS != int64(9*time.Millisecond) {
		t.Fatalf("probe order = %d/%d ns, want 10ms/9ms", probe[0].WorkNS, probe[1].WorkNS)
	}
	if probe[0].Trace.ID != ID(10).String() {
		t.Errorf("slowest probe trace = %s, want flow 10", probe[0].Trace.ID)
	}
	if len(probe[0].Trace.Spans) == 0 {
		t.Error("slow entry carries no span breakdown")
	}
	if got := len(slow["classify"]); got != 2 {
		t.Errorf("classify entries = %d, want 2", got)
	}

	// n <= 0: everything retained (slowPer caps at 3).
	all := store.SlowestByStage(0)
	if len(all["probe"]) != 3 {
		t.Errorf("uncapped probe entries = %d, want 3 (retention bound)", len(all["probe"]))
	}
	// Asking beyond retention is clamped, not a panic.
	if got := store.SlowestByStage(99); len(got["probe"]) != 3 {
		t.Errorf("overask probe entries = %d, want 3", len(got["probe"]))
	}
}
