// Package campaign infers coordinated scanning campaigns from eX-IoT's
// CTI records — the analysis direction of the authors' prior work
// ("inferring and investigating IoT-generated scanning campaigns") built
// on top of the feed. Records whose flows share a scanning signature —
// the targeted port set and the fingerprinted scan engine — are grouped
// into campaigns; signature groups with strongly overlapping port sets
// are merged, so minor per-bot differences (a port seen in one flow but
// not another) do not fragment a botnet into many campaigns.
//
// Infer clusters a slice of records in one pass. A feed that is kept in
// blocks infers per block instead: a Summarizer turns each block's
// records into a Summary (the exact-signature grouping), built once with
// the block, and Merge folds the blocks' summaries into the campaigns
// Infer finds over the same records. An update then reads the blocks'
// summaries, not the records.
package campaign

import (
	"cmp"
	"slices"
	"sort"
	"strconv"
	"strings"

	"exiot/internal/feed"
)

// Signature is the behaviour key of a campaign.
type Signature struct {
	// Ports are the flow's significant target ports, ascending.
	Ports []uint16
	// Tool is the fingerprinted scan engine ("" when unknown).
	Tool string
}

// String renders the signature for display and map keys: the ports,
// comma-separated, then "|" and the tool when there is one.
func (s Signature) String() string { return string(appendKey(nil, s.Ports, s.Tool)) }

// appendKey appends the String of the signature ports and tool to dst.
func appendKey(dst []byte, ports []uint16, tool string) []byte {
	for i, p := range ports {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, uint64(p), 10)
	}
	if tool != "" {
		dst = append(dst, '|')
		dst = append(dst, tool...)
	}
	return dst
}

// parseKey returns the signature whose String is key. Ports hold no
// '|', so the first one ends them.
func parseKey(key string) Signature {
	ports, tool, _ := strings.Cut(key, "|")
	sig := Signature{Ports: make([]uint16, 0, strings.Count(ports, ",")+1), Tool: tool}
	for more := true; more; {
		var p string
		p, ports, more = strings.Cut(ports, ",")
		n, _ := strconv.ParseUint(p, 10, 16) // appendKey wrote it
		sig.Ports = append(sig.Ports, uint16(n))
	}
	return sig
}

// Campaign is one inferred group of coordinated scanners.
type Campaign struct {
	Signature Signature
	// IPs are the member source addresses (unique).
	IPs []string
	// Countries tallies member geolocations.
	Countries map[string]int
	// Records counts member flow instances.
	Records int
}

// Size returns the number of unique member sources.
func (c *Campaign) Size() int { return len(c.IPs) }

// The inference operating point.
const (
	// minPortShare keeps a port in the signature only if it carries at
	// least this fraction of the flow's packets.
	minPortShare = 0.10
	// mergeJaccard merges signature groups whose port sets overlap at
	// least this much.
	mergeJaccard = 0.5
	// minSize drops campaigns with fewer unique sources.
	minSize = 3
)

// portCount is one target port and its packets.
type portCount struct {
	port uint16
	n    int
}

// appendPorts appends rec's significant target ports to dst, ascending,
// and reports whether there is any. It walks the port map once, into
// seen, which it returns for reuse.
func appendPorts(dst []uint16, seen []portCount, rec *feed.Record) ([]uint16, []portCount, bool) {
	total := 0
	seen = seen[:0]
	for p, n := range rec.TargetPorts {
		total += n
		seen = append(seen, portCount{p, n})
	}
	if total == 0 {
		return dst, seen, false
	}
	start := len(dst)
	for _, pc := range seen {
		if float64(pc.n)/float64(total) >= minPortShare {
			dst = append(dst, pc.port)
		}
	}
	slices.Sort(dst[start:])
	return dst, seen, len(dst) > start
}

// signatureOf derives a record's scanning signature.
func signatureOf(rec *feed.Record) (Signature, bool) {
	ports, _, ok := appendPorts(nil, nil, rec)
	return Signature{Ports: ports, Tool: rec.Tool}, ok
}

// member reports whether rec can join a campaign at all: an IoT-labeled
// record not known to be benign.
func member(rec *feed.Record) bool { return rec.IsIoT() && !rec.Benign }

// jaccard computes set overlap of two ascending port slices, each
// without repeats.
func jaccard(a, b []uint16) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// Infer groups IoT-labeled records into campaigns.
func Infer(records []feed.Record) []Campaign {
	// Pass 1: exact-signature grouping.
	groups := map[string]*Campaign{}
	seen := map[string]map[string]bool{} // signature key → member IPs
	for i := range records {
		rec := &records[i]
		if !member(rec) {
			continue
		}
		sig, ok := signatureOf(rec)
		if !ok {
			continue
		}
		key := sig.String()
		g, exists := groups[key]
		if !exists {
			g = &Campaign{Signature: sig, Countries: map[string]int{}}
			groups[key] = g
			seen[key] = map[string]bool{}
		}
		g.Records++
		if !seen[key][rec.IP] {
			seen[key][rec.IP] = true
			g.IPs = append(g.IPs, rec.IP)
		}
		if rec.CountryCode != "" {
			g.Countries[rec.CountryCode]++
		}
	}
	list := make([]keyed, 0, len(groups))
	for key, g := range groups {
		list = append(list, keyed{key, g})
	}
	return cluster(list)
}

// keyed is one signature group with its signature's String, rendered
// once.
type keyed struct {
	key string
	*Campaign
}

// bySizeThenKey orders groups largest first, then by signature.
func bySizeThenKey(a, b keyed) int {
	if c := cmp.Compare(b.Size(), a.Size()); c != 0 {
		return c
	}
	return strings.Compare(a.key, b.key)
}

// cluster runs passes 2 and 3 over the exact-signature groups, whose
// member IPs are distinct within each group. It owns the groups.
func cluster(groups []keyed) []Campaign {
	// Pass 2: merge overlapping signatures (largest first absorbs). A
	// host gathers its guests' IPs; pass 3 removes the repeats.
	slices.SortFunc(groups, bySizeThenKey)
	var merged []keyed
	for _, g := range groups {
		host := -1
		for i, m := range merged {
			if m.Signature.Tool != g.Signature.Tool {
				continue
			}
			if jaccard(m.Signature.Ports, g.Signature.Ports) >= mergeJaccard {
				host = i
				break
			}
		}
		if host < 0 {
			merged = append(merged, g)
			continue
		}
		m := merged[host]
		m.IPs = append(m.IPs, g.IPs...)
		for cc, n := range g.Countries {
			m.Countries[cc] += n
		}
		m.Records += g.Records
	}

	// Pass 3: size filter and stable output order.
	var kept []keyed
	for _, g := range merged {
		slices.Sort(g.IPs)
		g.IPs = slices.Clip(slices.Compact(g.IPs))
		if g.Size() >= minSize {
			kept = append(kept, g)
		}
	}
	slices.SortFunc(kept, bySizeThenKey)
	var out []Campaign
	for _, g := range kept {
		out = append(out, *g.Campaign)
	}
	return out
}

// TopCountries returns the campaign's n most common member countries.
func (c *Campaign) TopCountries(n int) []string {
	type kv struct {
		cc string
		n  int
	}
	items := make([]kv, 0, len(c.Countries))
	for cc, cnt := range c.Countries {
		items = append(items, kv{cc, cnt})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].n != items[j].n {
			return items[i].n > items[j].n
		}
		return items[i].cc < items[j].cc
	})
	if n > len(items) {
		n = len(items)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = items[i].cc
	}
	return out
}
