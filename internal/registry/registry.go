// Package registry implements a synthetic Internet registry: prefix
// allocations with country, ASN, ISP, hosting sector, WHOIS contact, and
// reverse-DNS zones. It substitutes for the MaxMind GeoIP dataset, IP
// WHOIS, and reverse DNS used by eX-IoT's annotate module. Both the world
// simulator (placing hosts) and the enrichment module (looking hosts up)
// consult the same registry — mirroring reality, where the registry
// describes the Internet regardless of which hosts are compromised.
package registry

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"exiot/internal/packet"
)

// Config controls registry construction.
type Config struct {
	// Seed drives the deterministic allocation layout.
	Seed int64
	// Blocks is the number of /16 allocations to create (default 1024).
	Blocks int
}

// sectorSlice tags one /24 inside an allocation as belonging to a critical
// sector organization.
type sectorSlice struct {
	Sector string
	Org    string
}

// Allocation is one /16 registry entry.
type Allocation struct {
	Prefix     packet.Prefix
	Country    *Country
	ISP        ISP
	AbuseEmail string

	// sectorSlices maps the third octet to a critical-sector org carved
	// out of the ISP block (university, hospital, ministry, ...).
	sectorSlices map[byte]sectorSlice
}

// Info is the fully resolved registry view of a single IP address — what
// MaxMind + WHOIS + rDNS would jointly return.
type Info struct {
	IP          packet.IP
	Country     string
	CountryCode string
	Continent   string
	City        string
	Lat, Lon    float64
	ASN         int
	ISP         string
	Org         string
	Sector      string
	Domain      string
	AbuseEmail  string
	RDNS        string
	// Research marks scanners of known measurement organizations
	// (Censys, Shodan, ...) that the annotate module labels Benign.
	Research    bool
	ResearchOrg string
}

// Registry is the immutable synthetic Internet registry.
type Registry struct {
	allocs    []Allocation // sorted by prefix base
	byCountry map[string][]int
	research  []researchAlloc

	infectedCum []float64 // cumulative InfectionWeight per country index
	nonIoTCum   []float64
}

type researchAlloc struct {
	Prefix packet.Prefix
	Org    ResearchOrg
}

// Build deterministically constructs a registry from cfg.
func Build(cfg Config) *Registry {
	if cfg.Blocks <= 0 {
		cfg.Blocks = 1024
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	r := &Registry{byCountry: make(map[string][]int, len(Countries))}
	for _, ro := range ResearchOrgs {
		r.research = append(r.research, researchAlloc{
			Prefix: packet.MustParsePrefix(ro.Prefix),
			Org:    ro,
		})
	}

	// Candidate /16 bases: everything routable except the telescope /8
	// (10.0.0.0/8), loopback, and multicast+.
	var bases []packet.IP
	for a := 1; a <= 223; a++ {
		if a == 10 || a == 127 {
			continue
		}
		for b := 0; b < 256; b++ {
			bases = append(bases, packet.MakeIP(byte(a), byte(b), 0, 0))
		}
	}
	rng.Shuffle(len(bases), func(i, j int) { bases[i], bases[j] = bases[j], bases[i] })

	// Combined weight decides how many blocks each country receives.
	var totalW float64
	for i := range Countries {
		totalW += Countries[i].InfectionWeight + Countries[i].NonIoTWeight
	}

	bi := 0
	nextBase := func() (packet.Prefix, bool) {
		for bi < len(bases) {
			p := packet.MakePrefix(bases[bi], 16)
			bi++
			overlap := false
			for _, ra := range r.research {
				if p.Contains(ra.Prefix.Base) {
					overlap = true
					break
				}
			}
			if !overlap {
				return p, true
			}
		}
		return packet.Prefix{}, false
	}

	for ci := range Countries {
		c := &Countries[ci]
		share := (c.InfectionWeight + c.NonIoTWeight) / totalW
		n := int(share*float64(cfg.Blocks) + 0.5)
		if n < 1 {
			n = 1
		}
		isps := ispsFor(c)
		for k := 0; k < n; k++ {
			pfx, ok := nextBase()
			if !ok {
				break
			}
			isp := pickISP(isps, rng)
			alloc := Allocation{
				Prefix:     pfx,
				Country:    c,
				ISP:        isp,
				AbuseEmail: "abuse@" + domainOf(isp.RDNSSuffix),
			}
			// Carve critical-sector /24s out of the block.
			for s := 0; s < 256; s++ {
				u := rng.Float64()
				cum := 0.0
				for _, sw := range sectorWeights {
					cum += sw.Weight
					if u < cum {
						if alloc.sectorSlices == nil {
							alloc.sectorSlices = make(map[byte]sectorSlice)
						}
						alloc.sectorSlices[byte(s)] = sectorSlice{
							Sector: sw.Sector,
							Org:    sectorOrgName(sw.Sector, c, rng),
						}
						break
					}
				}
			}
			r.allocs = append(r.allocs, alloc)
		}
	}

	sort.Slice(r.allocs, func(i, j int) bool { return r.allocs[i].Prefix.Base < r.allocs[j].Prefix.Base })
	for i := range r.allocs {
		code := r.allocs[i].Country.Code
		r.byCountry[code] = append(r.byCountry[code], i)
	}

	// Precompute sampling tables.
	r.infectedCum = make([]float64, len(Countries))
	r.nonIoTCum = make([]float64, len(Countries))
	var ic, nc float64
	for i := range Countries {
		if len(r.byCountry[Countries[i].Code]) > 0 {
			ic += Countries[i].InfectionWeight
			nc += Countries[i].NonIoTWeight
		}
		r.infectedCum[i] = ic
		r.nonIoTCum[i] = nc
	}
	return r
}

func ispsFor(c *Country) []ISP {
	if isps, ok := ISPTable[c.Code]; ok {
		return isps
	}
	// Synthesize stable per-country ASNs for the long tail.
	base := 60000
	for _, ch := range c.Code {
		base += int(ch) * 131
	}
	out := make([]ISP, len(genericISPs))
	for i, g := range genericISPs {
		out[i] = ISP{
			ASN:        base + i,
			Name:       g.Name + " " + c.Code,
			Weight:     g.Weight,
			RDNSSuffix: strings.ToLower(c.Code) + "." + g.RDNSSuffix,
		}
	}
	return out
}

func pickISP(isps []ISP, rng *rand.Rand) ISP {
	u := rng.Float64()
	cum := 0.0
	for _, isp := range isps {
		cum += isp.Weight
		if u < cum {
			return isp
		}
	}
	return isps[len(isps)-1]
}

func sectorOrgName(sector string, c *Country, rng *rand.Rand) string {
	n := rng.Intn(90) + 10
	switch sector {
	case SectorEducation:
		return fmt.Sprintf("National University %d of %s", n, c.Name)
	case SectorManufacturing:
		return fmt.Sprintf("%s Industrial Works %d", c.Name, n)
	case SectorGovernment:
		return fmt.Sprintf("%s Ministry Office %d", c.Name, n)
	case SectorBanking:
		return fmt.Sprintf("%s Commercial Bank %d", c.Name, n)
	case SectorMedical:
		return fmt.Sprintf("%s Regional Hospital %d", c.Name, n)
	default:
		return c.Name + " Org"
	}
}

func domainOf(rdnsSuffix string) string {
	parts := strings.Split(rdnsSuffix, ".")
	if len(parts) >= 2 {
		return strings.Join(parts[len(parts)-2:], ".")
	}
	return rdnsSuffix
}

// Lookup resolves everything the registry knows about ip. The second
// return value is false for unallocated space.
func (r *Registry) Lookup(ip packet.IP) (Info, bool) {
	for _, ra := range r.research {
		if ra.Prefix.Contains(ip) {
			a, b, c, d := ip.Octets()
			return Info{
				IP:          ip,
				Country:     "United States",
				CountryCode: "US",
				Continent:   "North America",
				City:        "Ann Arbor",
				Lat:         42.28, Lon: -83.74,
				ASN:         36375,
				ISP:         ra.Org.Name,
				Org:         ra.Org.Name,
				Sector:      SectorEducation,
				Domain:      domainOf(ra.Org.RDNSSuffix),
				AbuseEmail:  "abuse@" + domainOf(ra.Org.RDNSSuffix),
				RDNS:        fmt.Sprintf("researchscan-%d-%d-%d-%d.%s", a, b, c, d, ra.Org.RDNSSuffix),
				Research:    true,
				ResearchOrg: ra.Org.Name,
			}, true
		}
	}

	i := sort.Search(len(r.allocs), func(i int) bool { return r.allocs[i].Prefix.Base > ip }) - 1
	if i < 0 || !r.allocs[i].Prefix.Contains(ip) {
		return Info{IP: ip}, false
	}
	alloc := &r.allocs[i]
	c := alloc.Country

	a, b, o3, d := ip.Octets()
	info := Info{
		IP:          ip,
		Country:     c.Name,
		CountryCode: c.Code,
		Continent:   c.Continent,
		ASN:         alloc.ISP.ASN,
		ISP:         alloc.ISP.Name,
		Org:         alloc.ISP.Name,
		Sector:      SectorResidential,
		Domain:      domainOf(alloc.ISP.RDNSSuffix),
		AbuseEmail:  alloc.AbuseEmail,
		RDNS:        fmt.Sprintf("%d-%d-%d-%d.%s", a, b, o3, d, alloc.ISP.RDNSSuffix),
	}
	if ss, ok := alloc.sectorSlices[o3]; ok {
		info.Sector = ss.Sector
		info.Org = ss.Org
	}
	// Deterministic city + jittered coordinates from the address.
	h := uint32(ip)*2654435761 + 0x9e3779b9
	info.City = c.Cities[int(h)%len(c.Cities)]
	info.Lat = c.Lat + float64(int(h>>8)%200-100)/50.0
	info.Lon = c.Lon + float64(int(h>>16)%200-100)/50.0
	return info, true
}

// PickInfectedHost samples an address for a new infected IoT device,
// following the per-country infection-density weights.
func (r *Registry) PickInfectedHost(rng *rand.Rand) packet.IP {
	return r.pickByCum(rng, r.infectedCum)
}

// PickNonIoTHost samples an address for a non-IoT scanning host.
func (r *Registry) PickNonIoTHost(rng *rand.Rand) packet.IP {
	return r.pickByCum(rng, r.nonIoTCum)
}

// PickHostIn samples an address inside a specific country.
func (r *Registry) PickHostIn(code string, rng *rand.Rand) (packet.IP, bool) {
	idxs := r.byCountry[code]
	if len(idxs) == 0 {
		return 0, false
	}
	alloc := &r.allocs[idxs[rng.Intn(len(idxs))]]
	return hostIn(alloc.Prefix, rng), true
}

// PickResearchScanner samples an address from a research organization's
// scanner pool.
func (r *Registry) PickResearchScanner(rng *rand.Rand) (packet.IP, ResearchOrg) {
	ra := r.research[rng.Intn(len(r.research))]
	return hostIn(ra.Prefix, rng), ra.Org
}

func (r *Registry) pickByCum(rng *rand.Rand, cum []float64) packet.IP {
	total := cum[len(cum)-1]
	u := rng.Float64() * total
	ci := sort.SearchFloat64s(cum, u)
	if ci >= len(Countries) {
		ci = len(Countries) - 1
	}
	ip, ok := r.PickHostIn(Countries[ci].Code, rng)
	if !ok {
		// Country received no blocks; fall back to any allocation.
		alloc := &r.allocs[rng.Intn(len(r.allocs))]
		return hostIn(alloc.Prefix, rng)
	}
	return ip
}

func hostIn(p packet.Prefix, rng *rand.Rand) packet.IP {
	// Avoid .0 and .255 in the last octet to stay plausible.
	for {
		ip := p.Nth(uint64(rng.Int63n(int64(p.Size()))))
		if last := byte(ip); last != 0 && last != 255 {
			return ip
		}
	}
}
