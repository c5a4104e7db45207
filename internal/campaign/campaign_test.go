package campaign

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"exiot/internal/feed"
)

// familyRecord synthesizes one feed record scanning per a family's port
// profile.
func familyRecord(rng *rand.Rand, ip string, ports map[uint16]int, tool, cc string) feed.Record {
	return feed.Record{
		IP:          ip,
		Label:       feed.LabelIoT,
		TargetPorts: ports,
		Tool:        tool,
		CountryCode: cc,
	}
}

func miraiPorts(rng *rand.Rand) map[uint16]int {
	// 90/10 telnet split with sampling noise.
	p23 := 170 + rng.Intn(30)
	return map[uint16]int{23: p23, 2323: 200 - p23}
}

func httpPorts(rng *rand.Rand) map[uint16]int {
	a := 80 + rng.Intn(30)
	b := 60 + rng.Intn(20)
	return map[uint16]int{8080: a, 80: b, 81: 200 - a - b}
}

func TestInferSeparatesFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var records []feed.Record
	countries := []string{"CN", "IN", "BR", "IR"}
	for i := 0; i < 40; i++ {
		records = append(records, familyRecord(rng, fmt.Sprintf("1.1.%d.%d", i/250, i%250),
			miraiPorts(rng), "Mirai-like scanner", countries[i%4]))
	}
	for i := 0; i < 25; i++ {
		records = append(records, familyRecord(rng, fmt.Sprintf("2.2.%d.%d", i/250, i%250),
			httpPorts(rng), "", countries[i%3]))
	}
	campaigns := Infer(records)
	if len(campaigns) != 2 {
		t.Fatalf("campaigns = %d, want 2: %+v", len(campaigns), sigs(campaigns))
	}
	if campaigns[0].Size() != 40 || campaigns[1].Size() != 25 {
		t.Errorf("sizes = %d/%d, want 40/25", campaigns[0].Size(), campaigns[1].Size())
	}
	if campaigns[0].Signature.Tool != "Mirai-like scanner" {
		t.Errorf("largest campaign tool = %q", campaigns[0].Signature.Tool)
	}
	top := campaigns[0].TopCountries(2)
	if len(top) != 2 {
		t.Errorf("TopCountries = %v", top)
	}
}

func sigs(cs []Campaign) []string {
	out := make([]string, len(cs))
	for i := range cs {
		out[i] = cs[i].Signature.String()
	}
	return out
}

func TestMergeAbsorbsNoisyVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var records []feed.Record
	// 30 bots: telnet-only signature; 10 bots: telnet + a side port that
	// overlaps enough to merge ({23} vs {23,2323} → jaccard 0.5).
	for i := 0; i < 30; i++ {
		records = append(records, familyRecord(rng, fmt.Sprintf("3.3.0.%d", i+1),
			map[uint16]int{23: 200}, "", "CN"))
	}
	for i := 0; i < 10; i++ {
		records = append(records, familyRecord(rng, fmt.Sprintf("3.3.1.%d", i+1),
			map[uint16]int{23: 150, 2323: 50}, "", "CN"))
	}
	campaigns := Infer(records)
	if len(campaigns) != 1 {
		t.Fatalf("campaigns = %d, want 1 after merge: %v", len(campaigns), sigs(campaigns))
	}
	if campaigns[0].Size() != 40 {
		t.Errorf("merged size = %d, want 40", campaigns[0].Size())
	}
}

func TestToolSplitsCampaigns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var records []feed.Record
	for i := 0; i < 10; i++ {
		records = append(records, familyRecord(rng, fmt.Sprintf("4.4.0.%d", i+1),
			map[uint16]int{23: 200}, "Mirai-like scanner", "CN"))
		records = append(records, familyRecord(rng, fmt.Sprintf("4.4.1.%d", i+1),
			map[uint16]int{23: 200}, "", "CN"))
	}
	campaigns := Infer(records)
	if len(campaigns) != 2 {
		t.Fatalf("same ports but different engines must split: %d campaigns", len(campaigns))
	}
}

func TestFiltersNonIoTAndSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var records []feed.Record
	// Non-IoT and benign records never join campaigns.
	rec := familyRecord(rng, "5.5.0.1", map[uint16]int{80: 100}, "ZMap", "US")
	rec.Label = feed.LabelNonIoT
	records = append(records, rec)
	benign := familyRecord(rng, "5.5.0.2", map[uint16]int{80: 100}, "ZMap", "US")
	benign.Benign = true
	records = append(records, benign)
	// Two-member group falls under minSize 3.
	for i := 0; i < 2; i++ {
		records = append(records, familyRecord(rng, fmt.Sprintf("5.5.1.%d", i+1),
			map[uint16]int{9999: 100}, "", "DE"))
	}
	if got := Infer(records); len(got) != 0 {
		t.Errorf("campaigns = %v, want none", sigs(got))
	}
	// Records without port stats are skipped, not crashed on.
	records = append(records, feed.Record{IP: "5.5.2.1", Label: feed.LabelIoT})
	if got := Infer(records); len(got) != 0 {
		t.Errorf("portless record created campaign: %v", sigs(got))
	}
}

func TestRepeatInstancesCountOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var records []feed.Record
	// The same 5 devices re-detected 4 times each: size 5, records 20.
	for round := 0; round < 4; round++ {
		for i := 0; i < 5; i++ {
			records = append(records, familyRecord(rng, fmt.Sprintf("6.6.0.%d", i+1),
				map[uint16]int{23: 200}, "", "CN"))
		}
	}
	campaigns := Infer(records)
	if len(campaigns) != 1 {
		t.Fatalf("campaigns = %d", len(campaigns))
	}
	if campaigns[0].Size() != 5 || campaigns[0].Records != 20 {
		t.Errorf("size/records = %d/%d, want 5/20", campaigns[0].Size(), campaigns[0].Records)
	}
}

func TestSignatureSharesThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// A port carrying 5% of packets is noise and must not enter the
	// signature at the default 10% threshold.
	rec := familyRecord(rng, "7.7.0.1", map[uint16]int{23: 190, 8081: 10}, "", "CN")
	sig, ok := signatureOf(&rec)
	if !ok {
		t.Fatal("no signature")
	}
	if len(sig.Ports) != 1 || sig.Ports[0] != 23 {
		t.Errorf("signature = %v, want [23]", sig.Ports)
	}
}

func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b []uint16
		want float64
	}{
		{[]uint16{23}, []uint16{23}, 1},
		{[]uint16{23}, []uint16{80}, 0},
		{[]uint16{23, 2323}, []uint16{23}, 0.5},
		{nil, nil, 1},
	}
	for _, c := range cases {
		if got := jaccard(c.a, c.b); got != c.want {
			t.Errorf("jaccard(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestInferEmptyRecordSet(t *testing.T) {
	if got := Infer(nil); got != nil {
		t.Errorf("Infer(nil) = %v, want nil", sigs(got))
	}
	if got := Infer([]feed.Record{}); got != nil {
		t.Errorf("Infer(empty) = %v, want nil", sigs(got))
	}
}

func TestInferSingleRecordBelowMinSize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// A lone scanner and a pair never make a campaign at minSize 3, and
	// a third member makes one: the filter (not the grouping) drops them.
	var records []feed.Record
	for i := 1; i <= minSize; i++ {
		records = append(records, familyRecord(rng, fmt.Sprintf("8.8.0.%d", i), map[uint16]int{23: 200}, "", "CN"))
		got := Infer(records)
		if i < minSize && len(got) != 0 {
			t.Errorf("%d-member group survived minSize %d: %v", i, minSize, sigs(got))
		}
		if i == minSize && (len(got) != 1 || got[0].Size() != minSize) {
			t.Errorf("%d-member group dropped at minSize %d: %+v", i, minSize, got)
		}
	}
}

func TestMergeJaccardBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	build := func(portsA, portsB map[uint16]int) []feed.Record {
		var records []feed.Record
		for i := 0; i < 5; i++ {
			records = append(records, familyRecord(rng, fmt.Sprintf("9.9.0.%d", i+1), portsA, "", "CN"))
			records = append(records, familyRecord(rng, fmt.Sprintf("9.9.1.%d", i+1), portsB, "", "CN"))
		}
		return records
	}
	// {23,2323} vs {23}: jaccard exactly mergeJaccard (0.5) — the >=
	// threshold merges it.
	at := build(map[uint16]int{23: 150, 2323: 50}, map[uint16]int{23: 200})
	if got := Infer(at); len(got) != 1 {
		t.Errorf("jaccard == threshold must merge: %v", sigs(got))
	}
	// {23,2323,5555} vs {23}: jaccard 1/3 — below it, stays split.
	below := build(map[uint16]int{23: 100, 2323: 50, 5555: 50}, map[uint16]int{23: 200})
	if got := Infer(below); len(got) != 2 {
		t.Errorf("jaccard below threshold must not merge: %v", sigs(got))
	}
}

func TestSignaturePortShareTies(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Two ports tied exactly at the 10% threshold share: both stay, and
	// the signature lists them ascending regardless of map iteration.
	rec := familyRecord(rng, "10.0.0.1", map[uint16]int{2323: 20, 23: 160, 5555: 20}, "", "CN")
	for i := 0; i < 20; i++ { // map order varies per run; pin across iterations
		sig, ok := signatureOf(&rec)
		if !ok {
			t.Fatal("no signature")
		}
		want := "23,2323,5555"
		if sig.String() != want {
			t.Fatalf("tied-share signature = %q, want %q", sig.String(), want)
		}
	}
	// Just under the threshold on one of the tied ports: it drops out.
	rec2 := familyRecord(rng, "10.0.0.2", map[uint16]int{2323: 19, 23: 161, 5555: 20}, "", "CN")
	sig, _ := signatureOf(&rec2)
	if sig.String() != "23,5555" {
		t.Errorf("sub-threshold port kept: %q", sig.String())
	}
}

func TestInferDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	var records []feed.Record
	for i := 0; i < 30; i++ {
		records = append(records, familyRecord(rng, fmt.Sprintf("11.0.%d.%d", i/250, i%250+1),
			miraiPorts(rng), "Mirai-like scanner", "CN"))
	}
	for i := 0; i < 12; i++ {
		records = append(records, familyRecord(rng, fmt.Sprintf("11.1.%d.%d", i/250, i%250+1),
			httpPorts(rng), "", "BR"))
	}
	for i := 0; i < 12; i++ {
		records = append(records, familyRecord(rng, fmt.Sprintf("11.2.%d.%d", i/250, i%250+1),
			map[uint16]int{5555: 200}, "", "IN"))
	}
	first := Infer(records)
	for run := 0; run < 10; run++ {
		if got := Infer(records); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d: same records produced different campaigns:\n%+v\nvs\n%+v", run, got, first)
		}
	}
}
