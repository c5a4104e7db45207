package features

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"exiot/internal/packet"
	"exiot/internal/simnet"
	"exiot/internal/simnet/simnettest"
)

func sampleFlow(n int, gap time.Duration) []packet.Packet {
	t0 := time.Date(2020, 12, 9, 7, 0, 0, 0, time.UTC)
	out := make([]packet.Packet, 0, n)
	for i := 0; i < n; i++ {
		p := packet.Packet{
			Timestamp: t0.Add(time.Duration(i) * gap),
			Proto:     packet.TCP,
			SrcIP:     packet.MustParseIP("203.0.113.1"),
			DstIP:     packet.IP(uint32(i) * 7919),
			SrcPort:   uint16(40000 + i),
			DstPort:   23,
			Seq:       uint32(i) * 1000,
			Flags:     packet.FlagSYN,
			Window:    5840,
			TTL:       48,
			Options:   packet.TCPOptions{HasMSS: true, MSS: 1460},
		}
		p.Normalize()
		out = append(out, p)
	}
	return out
}

func TestTableIIFields(t *testing.T) {
	// E2: the feature layout must match Table II — 24 fields × 5 stats.
	if NumFields != 24 {
		t.Errorf("NumFields = %d, want 24 (Table II)", NumFields)
	}
	if Dim != 120 {
		t.Errorf("Dim = %d, want 120 (24×5)", Dim)
	}
	want := map[string]bool{
		"protocol": true, "dst_port": true, "total_length": true,
		"tcp_offset": true, "tcp_data_length": true, "inter_arrival": true,
		"tos": true, "identification": true, "ttl": true, "src_ip": true,
		"dst_ip": true, "src_port": true, "sequence": true,
		"ack_sequence": true, "reserved": true, "flags": true,
		"window_size": true, "urgent_pointer": true, "opt_wscale": true,
		"opt_mss": true, "opt_timestamp": true, "opt_nop": true,
		"opt_sack_permitted": true, "opt_sack": true,
	}
	for _, name := range FieldNames {
		if !want[name] {
			t.Errorf("unexpected field %q", name)
		}
		delete(want, name)
	}
	if len(want) != 0 {
		t.Errorf("missing Table II fields: %v", want)
	}
}

func TestFeatureName(t *testing.T) {
	if got := FeatureName(0); got != "protocol:min" {
		t.Errorf("FeatureName(0) = %q", got)
	}
	if got := FeatureName(Dim - 1); got != "opt_sack:max" {
		t.Errorf("FeatureName(last) = %q", got)
	}
}

func TestRawVectorShape(t *testing.T) {
	v, err := RawVector(sampleFlow(200, 100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != Dim {
		t.Fatalf("len = %d, want %d", len(v), Dim)
	}
	// Constant fields: min == max.
	protoMin, protoMax := v[FieldProto*NumStats], v[FieldProto*NumStats+4]
	if protoMin != float64(packet.TCP) || protoMax != float64(packet.TCP) {
		t.Errorf("protocol stats = [%v..%v], want constant 6", protoMin, protoMax)
	}
	// Monotone stats: min ≤ q1 ≤ median ≤ q3 ≤ max for every field.
	for f := 0; f < NumFields; f++ {
		s := v[f*NumStats : f*NumStats+NumStats]
		for k := 1; k < NumStats; k++ {
			if s[k] < s[k-1] {
				t.Errorf("field %s stats not monotone: %v", FieldNames[f], s)
			}
		}
	}
	// Inter-arrival median ≈ 0.1 s.
	med := v[FieldInterArrival*NumStats+2]
	if math.Abs(med-0.1) > 1e-9 {
		t.Errorf("inter-arrival median = %v, want 0.1", med)
	}
	// First packet contributes inter-arrival 0 → min is 0.
	if v[FieldInterArrival*NumStats] != 0 {
		t.Errorf("inter-arrival min = %v, want 0", v[FieldInterArrival*NumStats])
	}
}

func TestRawVectorErrors(t *testing.T) {
	if _, err := RawVector(nil); err == nil {
		t.Error("empty sample should error")
	}
	flow := sampleFlow(5, time.Second)
	flow[2].Timestamp = flow[0].Timestamp.Add(-time.Second)
	if _, err := RawVector(flow); err == nil {
		t.Error("out-of-order sample should error")
	}
}

func TestRawVectorSinglePacket(t *testing.T) {
	v, err := RawVector(sampleFlow(1, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < NumFields; f++ {
		s := v[f*NumStats : f*NumStats+NumStats]
		for k := 1; k < NumStats; k++ {
			if s[k] != s[0] {
				t.Fatalf("single-packet stats must be constant, field %s: %v", FieldNames[f], s)
			}
		}
	}
}

func TestQuantileSorted(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := quantileSorted(vals, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Interpolation between elements.
	if got := quantileSorted([]float64{0, 10}, 0.5); got != 5 {
		t.Errorf("interpolated median = %v, want 5", got)
	}
	if got := quantileSorted([]float64{7}, 0.75); got != 7 {
		t.Errorf("single-element quantile = %v, want 7", got)
	}
}

func TestNormalizerMapsTrainingToCenteredUnit(t *testing.T) {
	raw := [][]float64{
		{0, 100},
		{5, 200},
		{10, 300},
	}
	n, err := FitNormalizer(raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range raw {
		out := n.Apply(v)
		for j, x := range out {
			if x < -1 || x > 1 {
				t.Errorf("normalized value %v out of [-1,1] (dim %d)", x, j)
			}
		}
	}
	// Mean of normalized training data must be ~0 per dimension.
	sums := make([]float64, 2)
	for _, v := range raw {
		out := n.Apply(v)
		for j, x := range out {
			sums[j] += x
		}
	}
	for j, s := range sums {
		if math.Abs(s/float64(len(raw))) > 1e-12 {
			t.Errorf("dim %d: normalized training mean = %v, want 0", j, s/3)
		}
	}
}

func TestNormalizerConstantDimension(t *testing.T) {
	raw := [][]float64{{5, 1}, {5, 2}, {5, 3}}
	n, err := FitNormalizer(raw)
	if err != nil {
		t.Fatal(err)
	}
	out := n.Apply([]float64{5, 2})
	if out[0] != 0 {
		t.Errorf("constant dim should normalize to 0, got %v", out[0])
	}
	// Even unseen values in a constant dim stay finite.
	out = n.Apply([]float64{99, 2})
	if math.IsNaN(out[0]) || math.IsInf(out[0], 0) {
		t.Errorf("constant dim produced %v", out[0])
	}
}

func TestNormalizerErrors(t *testing.T) {
	if _, err := FitNormalizer(nil); err == nil {
		t.Error("empty fit should error")
	}
	if _, err := FitNormalizer([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged vectors should error")
	}
}

func TestNormalizerPropertyFiniteOutputs(t *testing.T) {
	raw := [][]float64{{0, -5}, {10, 5}, {3, 0}}
	n, err := FitNormalizer(raw)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		out := n.Apply([]float64{a, b})
		return !math.IsNaN(out[0]) && !math.IsNaN(out[1]) &&
			!math.IsInf(out[0], 0) && !math.IsInf(out[1], 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestIoTVsToolVectorsSeparable sanity-checks that the simulator's two
// populations are distinguishable in feature space at all — the premise
// of the whole learning pipeline.
func TestIoTVsToolVectorsSeparable(t *testing.T) {
	cfg := simnet.DefaultConfig(21)
	cfg.NumInfected = 30
	cfg.NumNonIoT = 30
	cfg.NumResearch = 2
	cfg.NumMisconfig = 0
	cfg.NumBackscat = 0
	w := simnet.NewWorld(cfg)
	pkts := w.GenerateHour(w.Start())

	bySrc := map[packet.IP][]packet.Packet{}
	for _, p := range pkts {
		if len(bySrc[p.SrcIP]) < 200 {
			bySrc[p.SrcIP] = append(bySrc[p.SrcIP], p)
		}
	}
	var iotMedianIA, toolMedianIA []float64
	for ip, sample := range bySrc {
		if len(sample) < 50 {
			continue
		}
		v, err := RawVector(sample)
		if err != nil {
			t.Fatal(err)
		}
		h, ok := w.HostByIP(ip)
		if !ok {
			continue
		}
		med := v[FieldInterArrival*NumStats+2]
		switch h.Kind {
		case simnet.KindInfectedIoT:
			iotMedianIA = append(iotMedianIA, med)
		case simnet.KindNonIoTScanner, simnet.KindResearchScanner:
			toolMedianIA = append(toolMedianIA, med)
		}
	}
	if len(iotMedianIA) == 0 || len(toolMedianIA) == 0 {
		t.Skip("not enough flows this hour")
	}
	if mean(iotMedianIA) <= mean(toolMedianIA) {
		t.Errorf("IoT inter-arrival (%.4f) should exceed tool inter-arrival (%.4f)",
			mean(iotMedianIA), mean(toolMedianIA))
	}
}

// TestRawVectorGoldenDigest pins the flow vectors of real-shaped traffic
// bit for bit. The digest was computed by the full-sort extraction
// (slices.Sort + quantileSorted on float64 columns); any change to what
// RawVectorInto returns for these flows, in any bit, changes it.
func TestRawVectorGoldenDigest(t *testing.T) {
	const want = 0x26ec8ed32962475a
	flows := simnettest.Flows(2021, 8)
	if len(flows) < 500 {
		t.Fatalf("only %d flows, want ≥ 500", len(flows))
	}
	var s Scratch
	var v []float64
	h := fnv.New64a()
	var buf [8]byte
	for _, flow := range flows {
		var err error
		if v, err = s.RawVectorInto(v, flow); err != nil {
			t.Fatal(err)
		}
		for _, x := range v {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	if got := h.Sum64(); got != want {
		t.Errorf("digest over %d flows = %#x, want %#x", len(flows), got, uint64(want))
	}
}

// quantileSorted returns the q-quantile of sorted values with linear
// interpolation (the common "linear" method).
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// sortSummary is the five-number summary as RawVectorInto computed it
// before it selected ranks: sort the column, read min and max off its
// ends and interpolate the quartiles. It sorts col in place.
func sortSummary(dst, col []float64) []float64 {
	slices.Sort(col)
	return append(dst,
		col[0],
		quantileSorted(col, 0.25),
		quantileSorted(col, 0.50),
		quantileSorted(col, 0.75),
		col[len(col)-1],
	)
}

// sortRawVector is the full-sort extraction RawVectorInto replaced, kept
// as the reference it is measured and checked against. cols are reused
// float64 columns.
func sortRawVector(cols *[NumFields][]float64, dst []float64, sample []packet.Packet) []float64 {
	for f := range cols {
		cols[f] = cols[f][:0]
	}
	var fields [NumFields]float64
	for i := range sample {
		ia := 0.0
		if i > 0 {
			ia = sample[i].Timestamp.Sub(sample[i-1].Timestamp).Seconds()
		}
		PacketFields(&sample[i], &fields, ia)
		for f := range cols {
			cols[f] = append(cols[f], fields[f])
		}
	}
	dst = dst[:0]
	for f := range cols {
		dst = sortSummary(dst, cols[f])
	}
	return dst
}

// checkSummary compares summarize on col's order keys with sortSummary
// on col, bit for bit. Zeros compare by ==: a float sort ties -0 with
// +0, so which of the two it leaves at a rank is its own choice.
func checkSummary(t *testing.T, name string, col []float64) {
	t.Helper()
	keys := make([]uint64, len(col))
	for i, v := range col {
		keys[i] = orderKey(v)
	}
	lo, hi := minMax(keys)
	got := summarize(nil, keys, make([]uint64, len(keys)), lo, hi)
	want := sortSummary(nil, slices.Clone(col))
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(got[i] == 0 && want[i] == 0) {
			t.Fatalf("%s, n=%d: %s = %v (%#x), sort gives %v (%#x)", name, len(col),
				StatNames[i], got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestSummaryMatchesSort runs column shapes from Table II traffic and a
// few it never has (negative, subnormal) at lengths around the
// insertion-sort cut-off, the sample size and far beyond it.
func TestSummaryMatchesSort(t *testing.T) {
	shapes := []struct {
		name  string
		value func(rng *rand.Rand, i, n int) float64
	}{
		{"constant", func(*rand.Rand, int, int) float64 { return 0.1 }},
		{"0/1", func(rng *rand.Rand, _, _ int) float64 { return float64(rng.Intn(2)) }},
		{"small ints", func(rng *rand.Rand, _, _ int) float64 { return float64(rng.Intn(64)) }},
		{"uint32", func(rng *rand.Rand, _, _ int) float64 { return float64(rng.Uint32()) }},
		{"uint16", func(rng *rand.Rand, _, _ int) float64 { return float64(uint16(rng.Uint32())) }},
		{"inter-arrival", func(rng *rand.Rand, i, _ int) float64 {
			if i == 0 {
				return 0
			}
			return rng.ExpFloat64() * 0.05
		}},
		{"cluster+outlier", func(rng *rand.Rand, i, n int) float64 {
			if i == n/2 {
				return 1e9
			}
			return 1 + rng.Float64()*1e-9
		}},
		{"ascending", func(_ *rand.Rand, i, _ int) float64 { return float64(i) * 0.7 }},
		{"descending", func(_ *rand.Rand, i, n int) float64 { return float64(n-i) * 1.3 }},
		// Keys within 256 of each other: every bucket is one distinct key.
		{"subnormal", func(rng *rand.Rand, _, _ int) float64 {
			return math.SmallestNonzeroFloat64 * float64(rng.Intn(256))
		}},
		{"negative", func(rng *rand.Rand, _, _ int) float64 {
			switch rng.Intn(5) {
			case 0:
				return -rng.ExpFloat64()
			case 1:
				return math.SmallestNonzeroFloat64 * float64(rng.Intn(1000))
			case 2:
				return -math.SmallestNonzeroFloat64 * float64(rng.Intn(1000))
			case 3:
				return math.Copysign(0, -1)
			default:
				return -float64(rng.Intn(10))
			}
		}},
	}
	for _, n := range []int{1, 2, 3, 4, 5, 31, 32, 33, 199, 200, 201, 70000} {
		for _, s := range shapes {
			rng := rand.New(rand.NewSource(int64(n)))
			col := make([]float64, n)
			for i := range col {
				col[i] = s.value(rng, i, n)
			}
			checkSummary(t, s.name, col)
		}
	}
}

// FuzzSummary checks summarize against the sort on arbitrary finite
// columns. Each 8 bytes of data make one value: the float64 with those
// bits when shift%64 is 0, else the integer they encode shifted right by
// shift%64, so the shift sets how many distinct values a column can
// hold. Non-finite values are dropped: every Table II field is finite
// (see summarize), and NaN has no place in a float sort to match.
func FuzzSummary(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(0.25)), uint8(0))
	var ramp, subnormals []byte
	for i := uint64(0); i < 200; i++ {
		ramp = binary.LittleEndian.AppendUint64(ramp, i*0x9E3779B97F4A7C15)
		subnormals = binary.LittleEndian.AppendUint64(subnormals, 0x105+i*37%200)
	}
	for _, shift := range []uint8{0, 1, 32, 48, 56, 62, 63} {
		f.Add(ramp, shift)
	}
	f.Add(subnormals, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, shift uint8) {
		var col []float64
		for ; len(data) >= 8; data = data[8:] {
			u := binary.LittleEndian.Uint64(data)
			v := math.Float64frombits(u)
			if s := shift % 64; s != 0 {
				v = float64(u >> s)
			}
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				col = append(col, v)
			}
		}
		if len(col) > 0 {
			checkSummary(t, "fuzz", col)
		}
	})
}

// BenchmarkRawVectorInto extracts the 200-packet flows of seeded simnet
// traffic with a warm scratch. The sort arm runs the full-sort reference
// on the same flows, so the two arms' ratio is what selection buys.
func BenchmarkRawVectorInto(b *testing.B) {
	flows := slices.DeleteFunc(simnettest.Flows(2021, 8), func(flow []packet.Packet) bool {
		return len(flow) < simnettest.SampleSize
	})
	b.Run("select", func(b *testing.B) {
		var s Scratch
		dst, err := s.RawVectorInto(nil, flows[0])
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst, _ = s.RawVectorInto(dst, flows[i%len(flows)])
		}
	})
	b.Run("sort", func(b *testing.B) {
		var cols [NumFields][]float64
		dst := sortRawVector(&cols, nil, flows[0])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = sortRawVector(&cols, dst, flows[i%len(flows)])
		}
	})
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// TestRawVectorIntoMatchesRawVector proves scratch reuse is a pure
// allocation optimization: outputs must be identical, call after call.
func TestRawVectorIntoMatchesRawVector(t *testing.T) {
	var s Scratch
	dst := make([]float64, 0, Dim)
	for _, n := range []int{1, 3, 50, 200} {
		sample := sampleFlow(n, 250*time.Millisecond)
		want, err := RawVector(sample)
		if err != nil {
			t.Fatal(err)
		}
		var gotErr error
		dst, gotErr = s.RawVectorInto(dst, sample)
		if gotErr != nil {
			t.Fatal(gotErr)
		}
		if len(dst) != len(want) {
			t.Fatalf("n=%d: length %d, want %d", n, len(dst), len(want))
		}
		for j := range want {
			if dst[j] != want[j] {
				t.Fatalf("n=%d dim %d: scratch %v != fresh %v", n, j, dst[j], want[j])
			}
		}
	}
}

// TestRawVectorIntoZeroAlloc is the allocation-regression guard for
// AnnotateBatch's per-goroutine extraction scratch: with a warmed
// scratch and a preallocated destination, extraction must not allocate.
func TestRawVectorIntoZeroAlloc(t *testing.T) {
	sample := sampleFlow(200, 250*time.Millisecond)
	var s Scratch
	dst := make([]float64, 0, Dim)
	var err error
	if dst, err = s.RawVectorInto(dst, sample); err != nil { // warm the columns
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if dst, err = s.RawVectorInto(dst, sample); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("RawVectorInto allocates %.1f objects/op with warm scratch, want 0", allocs)
	}
}

// TestApplyIntoMatchesApplyAndZeroAlloc covers the normalizer's scratch
// form: identical output, no allocations with a preallocated buffer.
func TestApplyIntoMatchesApplyAndZeroAlloc(t *testing.T) {
	sample := sampleFlow(40, 100*time.Millisecond)
	raw, err := RawVector(sample)
	if err != nil {
		t.Fatal(err)
	}
	n, err := FitNormalizer([][]float64{raw})
	if err != nil {
		t.Fatal(err)
	}
	want := n.Apply(raw)
	dst := make([]float64, Dim)
	got := n.ApplyInto(dst, raw)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("dim %d: ApplyInto %v != Apply %v", j, got[j], want[j])
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		n.ApplyInto(dst, raw)
	}); allocs != 0 {
		t.Errorf("ApplyInto allocates %.1f objects/op, want 0", allocs)
	}
}
