package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: exiot
cpu: Example CPU @ 2.00GHz
BenchmarkIngestThroughput/workers=1-4         	       2	 518000000 ns/op	    641909 pkts/sec	      1557 ns/pkt	  120 B/op	       3 allocs/op
BenchmarkIngestThroughput/workers=1-4         	       2	 520000000 ns/op	    640000 pkts/sec	      1560 ns/pkt	  118 B/op	       3 allocs/op
BenchmarkIngestThroughput/workers=1-4         	       2	 516000000 ns/op	    643000 pkts/sec	      1555 ns/pkt	  122 B/op	       3 allocs/op
BenchmarkIngestThroughput/workers=4-4         	       3	 250000000 ns/op	   1330000 pkts/sec	       751 ns/pkt	  140 B/op	       5 allocs/op
BenchmarkPacketMarshal-4                      	12000000	        95.5 ns/op	       0 B/op	       0 allocs/op
some unrelated line
BenchmarkBroken   --- FAIL
PASS
ok  	exiot	12.1s
`

func TestParseBenchOutput(t *testing.T) {
	samples, _, err := parseBenchOutput(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(samples), keys(samples))
	}
	w1 := samples["IngestThroughput/workers=1"]
	if w1 == nil {
		t.Fatalf("workers=1 missing (GOMAXPROCS suffix not stripped?): %v", keys(samples))
	}
	if len(w1.nsPerOp) != 3 {
		t.Fatalf("workers=1 has %d ns/op samples, want 3", len(w1.nsPerOp))
	}
	if got := w1.metrics["pkts/sec"]; len(got) != 3 || got[0] != 641909 {
		t.Fatalf("pkts/sec samples = %v", got)
	}
	if got := w1.metrics["allocs/op"]; len(got) != 3 || got[0] != 3 {
		t.Fatalf("allocs/op samples = %v", got)
	}
	pm := samples["PacketMarshal"]
	if pm == nil || len(pm.nsPerOp) != 1 || pm.nsPerOp[0] != 95.5 {
		t.Fatalf("PacketMarshal = %+v", pm)
	}
}

func TestReduceMedians(t *testing.T) {
	samples, _, err := parseBenchOutput(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	stats := reduce(samples)
	w1 := stats["IngestThroughput/workers=1"]
	if w1.NsPerOp != 518000000 {
		t.Errorf("median ns/op = %v, want 518000000", w1.NsPerOp)
	}
	if w1.Metrics["pkts/sec"] != 641909 {
		t.Errorf("median pkts/sec = %v, want 641909", w1.Metrics["pkts/sec"])
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestStripProcSuffix(t *testing.T) {
	cases := map[string]string{
		"IngestThroughput/workers=1-4": "IngestThroughput/workers=1",
		"PacketMarshal-16":             "PacketMarshal",
		"NoSuffix":                     "NoSuffix",
		"Trailing-dash-":               "Trailing-dash-",
	}
	for in, want := range cases {
		if got := stripProcSuffix(in); got != want {
			t.Errorf("stripProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCompareBaselines(t *testing.T) {
	base := map[string]BenchStat{
		"A": {NsPerOp: 100},
		"B": {NsPerOp: 100},
		"C": {NsPerOp: 100},
		"D": {NsPerOp: 100},
	}
	cur := map[string]BenchStat{
		"A": {NsPerOp: 105}, // within threshold
		"B": {NsPerOp: 125}, // regressed
		"C": {NsPerOp: 60},  // improved
		// D missing
	}
	regs, improves, missing := compareBaselines(base, cur, 0.10)
	if len(regs) != 1 || regs[0].Name != "B" {
		t.Fatalf("regressions = %+v, want [B]", regs)
	}
	if regs[0].Delta != 0.25 {
		t.Errorf("B delta = %v, want 0.25", regs[0].Delta)
	}
	if len(improves) != 1 || improves[0].Name != "C" {
		t.Fatalf("improvements = %+v, want [C]", improves)
	}
	if len(missing) != 1 || missing[0] != "D" {
		t.Fatalf("missing = %v, want [D]", missing)
	}

	// Exactly at threshold is not a regression (strict >).
	regs, _, _ = compareBaselines(
		map[string]BenchStat{"X": {NsPerOp: 100}},
		map[string]BenchStat{"X": {NsPerOp: 110}}, 0.10)
	if len(regs) != 0 {
		t.Errorf("delta == threshold flagged as regression: %+v", regs)
	}
}

func TestCompareMetrics(t *testing.T) {
	base := map[string]BenchStat{
		"A": {NsPerOp: 100, Metrics: map[string]float64{
			"scan_recall":        0.8,
			"injected_false_fed": 0,
			"pkts/sec":           1000,
			"records":            50,
		}},
		"B": {NsPerOp: 100, Metrics: map[string]float64{"gone": 1}},
	}
	cur := map[string]BenchStat{
		"A": {NsPerOp: 100, Metrics: map[string]float64{
			"scan_recall":        0.4,  // halved: flagged
			"injected_false_fed": 3,    // moved off zero: flagged
			"pkts/sec":           1050, // +5%: within threshold
			"records":            50,   // unchanged
		}},
		"B": {NsPerOp: 100, Metrics: map[string]float64{}},
	}
	changes, missing := compareMetrics(base, cur, 0.10)
	if len(changes) != 2 {
		t.Fatalf("changes = %+v, want scan_recall and injected_false_fed", changes)
	}
	if changes[0].Name != "A [injected_false_fed]" || !math.IsInf(changes[0].Delta, 1) {
		t.Errorf("zero-baseline change = %+v, want +Inf delta", changes[0])
	}
	if changes[1].Name != "A [scan_recall]" || changes[1].Delta != -0.5 {
		t.Errorf("scan_recall change = %+v, want -0.5 delta", changes[1])
	}
	if len(missing) != 1 || missing[0] != "B [gone]" {
		t.Errorf("missing = %v, want [B [gone]]", missing)
	}

	// Both baselines zero: no change.
	changes, _ = compareMetrics(
		map[string]BenchStat{"Z": {Metrics: map[string]float64{"m": 0}}},
		map[string]BenchStat{"Z": {Metrics: map[string]float64{"m": 0}}}, 0.10)
	if len(changes) != 0 {
		t.Errorf("zero->zero flagged: %+v", changes)
	}
}

func keys(m map[string]*sample) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestParseBenchOutputStampsEnv(t *testing.T) {
	_, env, err := parseBenchOutput(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := Env{GOOS: "linux", GOARCH: "amd64", CPU: "Example CPU @ 2.00GHz", GOMAXPROCS: 4}
	if env != want {
		t.Errorf("env = %+v, want %+v", env, want)
	}
	// go test prints no -N suffix at GOMAXPROCS 1.
	_, env, err = parseBenchOutput(strings.NewReader("BenchmarkWireThroughput/v2-binary \t 100\t 674.5 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if env.GOMAXPROCS != 1 {
		t.Errorf("unsuffixed benchmark read as GOMAXPROCS %d, want 1", env.GOMAXPROCS)
	}
}

// TestCompareRefusesAcrossGOMAXPROCS: -warn-only waives regressions, not
// a comparison that means nothing.
func TestCompareRefusesAcrossGOMAXPROCS(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, env *Env) string {
		t.Helper()
		data, err := json.Marshal(Baseline{Env: env, Benchmarks: map[string]BenchStat{"X": {NsPerOp: 100}}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	unstamped := write("old.json", nil)
	at1 := write("one.json", &Env{GOMAXPROCS: 1})
	at4 := write("four.json", &Env{GOMAXPROCS: 4})
	if err := compareCmd([]string{"-baseline", at1, "-current", at4, "-warn-only"}); err == nil {
		t.Error("compare across GOMAXPROCS 1 and 4 passed under -warn-only")
	}
	if err := compareCmd([]string{"-baseline", unstamped, "-current", at4}); err != nil {
		t.Errorf("unstamped baseline refused: %v", err)
	}
	if err := compareCmd([]string{"-baseline", at4, "-current", at4}); err != nil {
		t.Errorf("same GOMAXPROCS refused: %v", err)
	}
}

// TestCompareFailsOnAllocRiseUnderWarnOnly: -warn-only waives what a
// noisy runner can cause — ns/op — and not what only the code can.
func TestCompareFailsOnAllocRiseUnderWarnOnly(t *testing.T) {
	allocs := func(n float64) BenchStat {
		return BenchStat{NsPerOp: 100, Metrics: map[string]float64{"allocs/op": n, "B/op": 64}}
	}
	base := map[string]BenchStat{"same": allocs(100), "edge": allocs(100), "up": allocs(100),
		"down": allocs(100), "off-zero": allocs(0), "zero": allocs(0), "gone": allocs(100), "bare": {NsPerOp: 100}}
	cur := map[string]BenchStat{"same": allocs(100), "edge": allocs(110), "up": allocs(111),
		"down": allocs(10), "off-zero": allocs(1), "zero": allocs(0), "bare": allocs(5)}
	regs := allocRegressions(base, cur, 0.10)
	if len(regs) != 2 || regs[0].Name != "off-zero" || regs[1].Name != "up" {
		t.Fatalf("alloc regressions = %+v, want [off-zero up]", regs)
	}
	if !math.IsInf(regs[0].Delta, 1) || math.Abs(regs[1].Delta-0.11) > 1e-9 {
		t.Errorf("deltas = %v, %v, want +Inf, 0.11", regs[0].Delta, regs[1].Delta)
	}

	dir := t.TempDir()
	write := func(name string, ns, allocs float64) string {
		t.Helper()
		data, err := json.Marshal(Baseline{Benchmarks: map[string]BenchStat{
			"X": {NsPerOp: ns, Metrics: map[string]float64{"allocs/op": allocs}}}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	baseline := write("base.json", 100, 1000)
	slower := write("slower.json", 200, 1000)
	hungrier := write("hungrier.json", 100, 1200)
	if err := compareCmd([]string{"-baseline", baseline, "-current", slower, "-warn-only"}); err != nil {
		t.Errorf("ns/op regression failed under -warn-only: %v", err)
	}
	if err := compareCmd([]string{"-baseline", baseline, "-current", hungrier, "-warn-only"}); err == nil {
		t.Error("allocs/op 1000 -> 1200 passed under -warn-only")
	}
	if err := compareCmd([]string{"-baseline", hungrier, "-current", baseline, "-warn-only"}); err != nil {
		t.Errorf("allocs/op fall refused: %v", err)
	}
}
