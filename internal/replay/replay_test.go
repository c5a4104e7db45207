package replay

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"exiot/internal/packet"
	"exiot/internal/pcapio"
	"exiot/internal/telemetry"
)

func testPacket(r *rand.Rand, ts time.Time) packet.Packet {
	p := packet.Packet{
		Timestamp: ts,
		TTL:       uint8(1 + r.Intn(255)),
		ID:        uint16(r.Intn(65536)),
		Proto:     packet.TCP,
		SrcIP:     packet.IP(r.Uint32()),
		DstIP:     packet.IP(r.Uint32()),
		SrcPort:   uint16(r.Intn(65536)),
		DstPort:   23,
		Seq:       r.Uint32(),
		Flags:     packet.FlagSYN,
		Window:    uint16(r.Intn(65536)),
	}
	p.Normalize()
	return p
}

// writeHour writes n packets spread across the given hour into dir.
func writeHour(t *testing.T, dir string, hour time.Time, n int, seed int64) []packet.Packet {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	hw, err := pcapio.CreateHour(dir, hour)
	if err != nil {
		t.Fatal(err)
	}
	pkts := make([]packet.Packet, n)
	step := time.Hour / time.Duration(n+1) // keep every packet inside the hour
	for i := range pkts {
		pkts[i] = testPacket(r, hour.Add(time.Duration(i)*step))
		if err := hw.WritePacket(&pkts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := hw.Close(); err != nil {
		t.Fatal(err)
	}
	return pkts
}

// emitRecorder captures every Emit call, copying the pooled slice.
type emitRecorder struct {
	hours []time.Time
	pkts  [][]packet.Packet
}

func (e *emitRecorder) emit(pkts []packet.Packet, hour time.Time) error {
	e.hours = append(e.hours, hour)
	e.pkts = append(e.pkts, append([]packet.Packet(nil), pkts...))
	return nil
}

// gapBase is the first hour writeGapDir publishes.
var gapBase = time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC)

// writeGapDir publishes hours 0, 1 and 3 from gapBase into dir, leaving
// hour 2 a gap, and returns the three hours' packets.
func writeGapDir(t *testing.T, dir string) (want0, want1, want3 []packet.Packet) {
	t.Helper()
	return writeHour(t, dir, gapBase, 40, 1),
		writeHour(t, dir, gapBase.Add(time.Hour), 25, 2),
		writeHour(t, dir, gapBase.Add(3*time.Hour), 30, 3)
}

// TestReplayDirGapFill proves directory replay visits every published
// hour in order and fills unpublished gaps with empty emits, so the
// pipeline's hourly sweeps keep their cadence.
func TestReplayDirGapFill(t *testing.T) {
	dir, base := t.TempDir(), gapBase
	want0, want1, want3 := writeGapDir(t, dir)

	var rec emitRecorder
	r := New(Config{Emit: rec.emit})
	if err := r.ReplayDir(dir); err != nil {
		t.Fatal(err)
	}
	if len(rec.hours) != 4 {
		t.Fatalf("emitted %d hours, want 4 (gap filled)", len(rec.hours))
	}
	for i, h := range rec.hours {
		if want := base.Add(time.Duration(i) * time.Hour); !h.Equal(want) {
			t.Errorf("emit %d: hour %v, want %v", i, h, want)
		}
	}
	for i, want := range map[int][]packet.Packet{0: want0, 1: want1, 3: want3} {
		if len(rec.pkts[i]) != len(want) {
			t.Errorf("hour %d: %d packets, want %d", i, len(rec.pkts[i]), len(want))
			continue
		}
		for j := range want {
			if rec.pkts[i][j] != want[j] {
				t.Fatalf("hour %d packet %d mismatch", i, j)
			}
		}
	}
	if len(rec.pkts[2]) != 0 {
		t.Errorf("gap hour carried %d packets, want 0", len(rec.pkts[2]))
	}
	if got, want := r.Packets(), int64(95); got != want {
		t.Errorf("Packets() = %d, want %d", got, want)
	}
	if r.Hours() != 4 {
		t.Errorf("Hours() = %d, want 4", r.Hours())
	}
	if want := base.Add(4 * time.Hour); !r.End().Equal(want) {
		t.Errorf("End() = %v, want %v", r.End(), want)
	}
}

// TestReplayDirFollowsGrowingDir is the follower's contract: ReplayDir
// called again after the directory gained an hour emits only what is new,
// filling the gap before it, and a call that finds nothing new (or an
// empty directory) emits nothing.
func TestReplayDirFollowsGrowingDir(t *testing.T) {
	dir := t.TempDir()
	base := time.Date(2021, 4, 8, 0, 0, 0, 0, time.UTC)
	var rec emitRecorder
	r := New(Config{Emit: rec.emit})
	if err := r.ReplayDir(dir); err != nil || len(rec.hours) != 0 {
		t.Fatalf("empty directory: %d hours emitted, err %v", len(rec.hours), err)
	}
	writeHour(t, dir, base, 20, 1)
	writeHour(t, dir, base.Add(time.Hour), 30, 2)
	if err := r.ReplayDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := r.ReplayDir(dir); err != nil {
		t.Fatal(err)
	}
	if len(rec.hours) != 2 {
		t.Fatalf("two calls over two hours emitted %d hours, want 2", len(rec.hours))
	}
	// Hour 2 is never published; hour 3 is.
	want3 := writeHour(t, dir, base.Add(3*time.Hour), 40, 3)
	if err := r.ReplayDir(dir); err != nil {
		t.Fatal(err)
	}
	if len(rec.hours) != 4 {
		t.Fatalf("emitted %d hours after the directory grew, want 4", len(rec.hours))
	}
	for i, h := range rec.hours {
		if want := base.Add(time.Duration(i) * time.Hour); !h.Equal(want) {
			t.Errorf("emit %d: hour %v, want %v", i, h, want)
		}
	}
	if n := []int{len(rec.pkts[0]), len(rec.pkts[1]), len(rec.pkts[2]), len(rec.pkts[3])}; n[0] != 20 || n[1] != 30 || n[2] != 0 || n[3] != len(want3) {
		t.Errorf("hours carried %v packets, want [20 30 0 %d]", n, len(want3))
	}
	if r.Packets() != 90 || r.Hours() != 4 || !r.End().Equal(base.Add(4*time.Hour)) {
		t.Errorf("Packets %d, Hours %d, End %v; want 90, 4, %v", r.Packets(), r.Hours(), r.End(), base.Add(4*time.Hour))
	}
}

// TestReplayFileHourBoundaries proves single-file replay derives hour
// boundaries from packet timestamps, including empty fills for silent
// hours in the middle of the capture.
func TestReplayFileHourBoundaries(t *testing.T) {
	dir := t.TempDir()
	base := time.Date(2021, 4, 2, 9, 0, 0, 0, time.UTC)
	path := filepath.Join(dir, "span.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := pcapio.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	// Packets in hours 0 and 2 of the span; hour 1 is silent.
	counts := map[int]int{0: 12, 2: 18}
	for _, h := range []int{0, 2} {
		for i := 0; i < counts[h]; i++ {
			p := testPacket(r, base.Add(time.Duration(h)*time.Hour+time.Duration(i)*time.Minute))
			if err := w.WritePacket(&p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var rec emitRecorder
	rep := New(Config{Emit: rec.emit})
	if err := rep.Replay(path); err != nil {
		t.Fatal(err)
	}
	if len(rec.hours) != 3 {
		t.Fatalf("emitted %d hours, want 3", len(rec.hours))
	}
	for i, wantN := range []int{12, 0, 18} {
		if !rec.hours[i].Equal(base.Add(time.Duration(i) * time.Hour)) {
			t.Errorf("emit %d at %v", i, rec.hours[i])
		}
		if len(rec.pkts[i]) != wantN {
			t.Errorf("hour %d: %d packets, want %d", i, len(rec.pkts[i]), wantN)
		}
	}
	if want := base.Add(3 * time.Hour); !rep.End().Equal(want) {
		t.Errorf("End() = %v, want %v", rep.End(), want)
	}
}

// TestWarpZeroNeverTouchesClock pins the determinism contract: at
// Warp == 0 the replayer must never consult the injected clock or sleep.
func TestWarpZeroNeverTouchesClock(t *testing.T) {
	dir := t.TempDir()
	base := time.Date(2021, 4, 3, 0, 0, 0, 0, time.UTC)
	writeHour(t, dir, base, 2000, 5)
	r := New(Config{
		Warp: 0,
		Emit: func([]packet.Packet, time.Time) error { return nil },
		Now: func() time.Time {
			t.Error("Now() consulted at warp 0")
			return time.Time{}
		},
		Sleep: func(time.Duration) {
			t.Error("Sleep() called at warp 0")
		},
	})
	if err := r.ReplayDir(dir); err != nil {
		t.Fatal(err)
	}
}

// TestWarpPacingSchedule proves paced mode sleeps the recorded span
// compressed by the warp factor, against a fake clock.
func TestWarpPacingSchedule(t *testing.T) {
	dir := t.TempDir()
	base := time.Date(2021, 4, 4, 0, 0, 0, 0, time.UTC)
	writeHour(t, dir, base, 1500, 6)
	writeHour(t, dir, base.Add(time.Hour), 1500, 7)

	var (
		clock = time.Unix(1_600_000_000, 0) // fake wall clock (non-zero: zero Time is the unanchored sentinel)
		slept time.Duration
	)
	r := New(Config{
		Warp: 60, // two recorded hours should take two wall minutes
		Emit: func([]packet.Packet, time.Time) error { return nil },
		Now:  func() time.Time { return clock },
		Sleep: func(d time.Duration) {
			slept += d
			clock = clock.Add(d)
		},
	})
	if err := r.ReplayDir(dir); err != nil {
		t.Fatal(err)
	}
	// The virtual clock anchors at the first pacing check (~512 packets
	// in), so the total sleep is the recorded span from that anchor to
	// the final hour end, divided by 60 — just under 2 minutes.
	if slept < 90*time.Second || slept > 2*time.Minute {
		t.Errorf("slept %v across a 2-recorded-hour warp-60 replay, want ≈2m", slept)
	}
}

// replayLayer returns the replay layer's totals on the default registry
// (zero before its first call).
func replayLayer() telemetry.LayerStat {
	for _, st := range telemetry.Default().LayerStats() {
		if st.Layer == "replay" {
			return st
		}
	}
	return telemetry.LayerStat{}
}

// TestReplayLayer proves the replay layer makes one call per emitted
// hour, gap hours included, with the hour's packets as its items, and
// charges it only the reading: its busy time, Emit's time and the pacing
// sleeps are disjoint, so together they fit in the run's wall time. A
// layer charged for a fake sleep's duration, or for the wall time spent
// in Emit or a sleep, does not fit.
func TestReplayLayer(t *testing.T) {
	dir := t.TempDir()
	writeGapDir(t, dir)
	for _, warp := range []float64{0, 60} {
		var (
			clock      = time.Unix(1_600_000_000, 0)
			slept      time.Duration // on the fake clock
			inEmit     time.Duration // wall time inside Emit and Sleep
			sleepCalls int
		)
		r := New(Config{
			Warp: warp,
			Emit: func([]packet.Packet, time.Time) error {
				start := time.Now()
				time.Sleep(2 * time.Millisecond)
				inEmit += time.Since(start)
				return nil
			},
			Now: func() time.Time { return clock },
			Sleep: func(d time.Duration) {
				start := time.Now()
				time.Sleep(2 * time.Millisecond)
				inEmit += time.Since(start)
				slept += d
				sleepCalls++
				clock = clock.Add(d)
			},
		})
		before := replayLayer()
		start := time.Now()
		if err := r.ReplayDir(dir); err != nil {
			t.Fatal(err)
		}
		wall := time.Since(start)
		after := replayLayer()

		if got := after.Calls - before.Calls; got != r.Hours() || got != 4 {
			t.Errorf("warp %v: layer calls advanced by %d, Hours() = %d, want 4", warp, got, r.Hours())
		}
		if got := after.Items - before.Items; got != r.Packets() || got != 95 {
			t.Errorf("warp %v: layer items advanced by %d, Packets() = %d, want 95", warp, got, r.Packets())
		}
		if (warp > 0) != (sleepCalls > 0) {
			t.Fatalf("warp %v: %d pacing sleeps", warp, sleepCalls)
		}
		busy := time.Duration((after.Seconds - before.Seconds) * float64(time.Second))
		if busy+inEmit > wall {
			t.Errorf("warp %v: layer busy %v + Emit and sleeps %v exceed the run's wall time %v (slept %v on the fake clock)",
				warp, busy, inEmit, wall, slept)
		}
	}
}

// TestReplayTornCapture proves a capture cut mid-record still emits the
// packets before the tear and surfaces the io.ErrUnexpectedEOF-wrapped
// error — a damaged file yields a partial hour, never a garbage packet.
func TestReplayTornCapture(t *testing.T) {
	dir := t.TempDir()
	base := time.Date(2021, 4, 5, 0, 0, 0, 0, time.UTC)
	path := filepath.Join(dir, "torn.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := pcapio.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 10; i++ {
		p := testPacket(r, base.Add(time.Duration(i)*time.Second))
		if err := w.WritePacket(&p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(fi.Size() - 5); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var rec emitRecorder
	rep := New(Config{Emit: rec.emit})
	err = rep.Replay(path)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("want io.ErrUnexpectedEOF-wrapped error, got %v", err)
	}
	if len(rec.hours) != 1 || len(rec.pkts[0]) != 9 {
		t.Fatalf("partial hour not emitted: %d hours, %v packets", len(rec.hours), len(rec.pkts))
	}
}

// TestHourBufferReuse pins the pooled-buffer contract: consecutive
// non-growing hours share one backing array.
func TestHourBufferReuse(t *testing.T) {
	dir := t.TempDir()
	base := time.Date(2021, 4, 6, 0, 0, 0, 0, time.UTC)
	writeHour(t, dir, base, 100, 9)
	writeHour(t, dir, base.Add(time.Hour), 100, 10)
	var first *packet.Packet
	r := New(Config{Emit: func(pkts []packet.Packet, _ time.Time) error {
		if len(pkts) == 0 {
			return nil
		}
		if first == nil {
			first = &pkts[0]
		} else if first != &pkts[0] {
			t.Error("hour buffer was reallocated between equal-sized hours")
		}
		return nil
	}})
	if err := r.ReplayDir(dir); err != nil {
		t.Fatal(err)
	}
	if first == nil {
		t.Fatal("no packets emitted")
	}
}

// TestReplayDirOpenErrorKeepsEarlierHours pins what an unreadable hour
// costs: the replayer opens hour h+1 before it flushes hour h (so the
// capture's read-ahead works through Emit), and an open that fails must
// still let hour h out before the error is returned.
func TestReplayDirOpenErrorKeepsEarlierHours(t *testing.T) {
	dir := t.TempDir()
	base := time.Date(2021, 4, 7, 0, 0, 0, 0, time.UTC)
	want := writeHour(t, dir, base, 60, 11)
	bad := filepath.Join(dir, pcapio.HourFileName(base.Add(time.Hour)))
	if err := os.WriteFile(bad, []byte("neither gzip nor pcap, but long enough to hold a header"), 0o644); err != nil {
		t.Fatal(err)
	}

	var rec emitRecorder
	r := New(Config{Emit: rec.emit})
	if err := r.ReplayDir(dir); !errors.Is(err, pcapio.ErrNotPcap) {
		t.Fatalf("want the second hour's open error, got %v", err)
	}
	if len(rec.hours) != 1 || !rec.hours[0].Equal(base) {
		t.Fatalf("emitted hours %v, want only %v", rec.hours, base)
	}
	if len(rec.pkts[0]) != len(want) {
		t.Fatalf("first hour: %d packets, want %d", len(rec.pkts[0]), len(want))
	}
	for i := range want {
		if rec.pkts[0][i] != want[i] {
			t.Fatalf("first hour packet %d mismatch", i)
		}
	}
}
