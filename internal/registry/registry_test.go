package registry

import (
	"math/rand"
	"strings"
	"testing"

	"exiot/internal/packet"
)

func testRegistry(t *testing.T) *Registry {
	t.Helper()
	return Build(Config{Seed: 1, Blocks: 512})
}

func TestBuildDeterministic(t *testing.T) {
	r1 := Build(Config{Seed: 42, Blocks: 256})
	r2 := Build(Config{Seed: 42, Blocks: 256})
	if len(r1.allocs) != len(r2.allocs) {
		t.Fatalf("allocation counts differ: %d vs %d", len(r1.allocs), len(r2.allocs))
	}
	rng1 := rand.New(rand.NewSource(5))
	rng2 := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		ip1 := r1.PickInfectedHost(rng1)
		ip2 := r2.PickInfectedHost(rng2)
		if ip1 != ip2 {
			t.Fatalf("sample %d differs: %v vs %v", i, ip1, ip2)
		}
	}
}

func TestLookupCoversSampledHosts(t *testing.T) {
	r := testRegistry(t)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		ip := r.PickInfectedHost(rng)
		info, ok := r.Lookup(ip)
		if !ok {
			t.Fatalf("sampled host %v not in registry", ip)
		}
		if info.Country == "" || info.CountryCode == "" || info.Continent == "" {
			t.Fatalf("incomplete geo for %v: %+v", ip, info)
		}
		if info.ASN == 0 || info.ISP == "" {
			t.Fatalf("incomplete ASN/ISP for %v: %+v", ip, info)
		}
		if info.RDNS == "" || info.AbuseEmail == "" {
			t.Fatalf("incomplete rdns/whois for %v: %+v", ip, info)
		}
		if info.Research {
			t.Fatalf("infected host %v mapped to research org", ip)
		}
	}
}

func TestLookupUnallocated(t *testing.T) {
	r := testRegistry(t)
	// The telescope /8 is never allocated.
	if _, ok := r.Lookup(packet.MustParseIP("10.1.2.3")); ok {
		t.Error("telescope space should be unallocated")
	}
}

func TestResearchScanners(t *testing.T) {
	r := testRegistry(t)
	rng := rand.New(rand.NewSource(3))
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		ip, org := r.PickResearchScanner(rng)
		info, ok := r.Lookup(ip)
		if !ok {
			t.Fatalf("research scanner %v not resolvable", ip)
		}
		if !info.Research {
			t.Fatalf("research scanner %v not marked Research: %+v", ip, info)
		}
		if info.ResearchOrg != org.Name {
			t.Fatalf("org mismatch: %q vs %q", info.ResearchOrg, org.Name)
		}
		if !strings.HasSuffix(info.RDNS, org.RDNSSuffix) {
			t.Fatalf("rdns %q lacks suffix %q", info.RDNS, org.RDNSSuffix)
		}
		seen[org.Name] = true
	}
	if len(seen) < 4 {
		t.Errorf("only %d research orgs sampled, want variety", len(seen))
	}
}

func TestInfectionWeightShape(t *testing.T) {
	r := Build(Config{Seed: 7, Blocks: 1024})
	rng := rand.New(rand.NewSource(11))
	counts := map[string]int{}
	const n = 30000
	for i := 0; i < n; i++ {
		ip := r.PickInfectedHost(rng)
		info, ok := r.Lookup(ip)
		if !ok {
			t.Fatal("unresolvable host")
		}
		counts[info.CountryCode]++
	}
	cn := float64(counts["CN"]) / n
	in := float64(counts["IN"]) / n
	br := float64(counts["BR"]) / n
	if cn < 0.35 || cn > 0.52 {
		t.Errorf("China share = %.3f, want ≈0.43", cn)
	}
	if in < 0.06 || in > 0.15 {
		t.Errorf("India share = %.3f, want ≈0.10", in)
	}
	if br < 0.05 || br > 0.13 {
		t.Errorf("Brazil share = %.3f, want ≈0.085", br)
	}
	if !(counts["CN"] > counts["IN"] && counts["IN"] > counts["BR"]) {
		t.Errorf("country ordering broken: CN=%d IN=%d BR=%d", counts["CN"], counts["IN"], counts["BR"])
	}
}

func TestContinentShape(t *testing.T) {
	r := Build(Config{Seed: 7, Blocks: 1024})
	rng := rand.New(rand.NewSource(13))
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		info, _ := r.Lookup(r.PickInfectedHost(rng))
		counts[info.Continent]++
	}
	asia := float64(counts["Asia"]) / n
	if asia < 0.60 || asia > 0.85 {
		t.Errorf("Asia share = %.3f, want ≈0.73", asia)
	}
	if counts["Asia"] <= counts["South America"] || counts["South America"] <= counts["Oceania"] {
		t.Errorf("continent ordering broken: %v", counts)
	}
}

func TestSectorPresence(t *testing.T) {
	r := Build(Config{Seed: 7, Blocks: 1024})
	rng := rand.New(rand.NewSource(17))
	counts := map[string]int{}
	const n = 60000
	for i := 0; i < n; i++ {
		info, _ := r.Lookup(r.PickInfectedHost(rng))
		counts[info.Sector]++
	}
	if counts[SectorResidential] < n*9/10 {
		t.Errorf("residential share too low: %v", counts)
	}
	for _, s := range []string{SectorEducation, SectorManufacturing, SectorGovernment} {
		if counts[s] == 0 {
			t.Errorf("sector %s never sampled", s)
		}
	}
	if counts[SectorEducation] < counts[SectorBanking] {
		t.Errorf("education should outnumber banking: %v", counts)
	}
}

func TestASNShape(t *testing.T) {
	r := Build(Config{Seed: 7, Blocks: 1024})
	rng := rand.New(rand.NewSource(19))
	counts := map[int]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		info, _ := r.Lookup(r.PickInfectedHost(rng))
		counts[info.ASN]++
	}
	// AS4134 (China Telecom) must be the single largest ASN.
	top, topCount := 0, 0
	for asn, c := range counts {
		if c > topCount {
			top, topCount = asn, c
		}
	}
	if top != 4134 {
		t.Errorf("top ASN = %d (count %d), want 4134", top, topCount)
	}
	if counts[4837] == 0 {
		t.Error("AS4837 (Unicom Liaoning) never sampled")
	}
}

func TestPickHostIn(t *testing.T) {
	r := testRegistry(t)
	rng := rand.New(rand.NewSource(23))
	ip, ok := r.PickHostIn("CZ", rng)
	if !ok {
		t.Fatal("no Czech blocks allocated")
	}
	info, _ := r.Lookup(ip)
	if info.CountryCode != "CZ" {
		t.Errorf("host in CZ resolved to %s", info.CountryCode)
	}
	if _, ok := r.PickHostIn("XX", rng); ok {
		t.Error("unknown country should not resolve")
	}
}

func TestLookupConsistency(t *testing.T) {
	r := testRegistry(t)
	ip := packet.MustParseIP("141.212.120.55")
	i1, ok1 := r.Lookup(ip)
	i2, ok2 := r.Lookup(ip)
	if !ok1 || !ok2 || i1 != i2 {
		t.Error("Lookup should be deterministic per IP")
	}
}

func TestCountryTableSane(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Countries {
		if seen[c.Code] {
			t.Errorf("duplicate country code %s", c.Code)
		}
		seen[c.Code] = true
		if c.InfectionWeight <= 0 || len(c.Cities) == 0 {
			t.Errorf("country %s incomplete", c.Name)
		}
	}
	for code, isps := range ISPTable {
		if !seen[code] {
			t.Errorf("ISP table references unknown country %s", code)
		}
		var w float64
		for _, isp := range isps {
			w += isp.Weight
		}
		if w < 0.99 || w > 1.01 {
			t.Errorf("ISP weights for %s sum to %.3f, want 1.0", code, w)
		}
	}
}
