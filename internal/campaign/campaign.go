// Package campaign infers coordinated scanning campaigns from eX-IoT's
// CTI records — the analysis direction of the authors' prior work
// ("inferring and investigating IoT-generated scanning campaigns") built
// on top of the feed. Records whose flows share a scanning signature —
// the targeted port set and the fingerprinted scan engine — are grouped
// into campaigns; signature groups with strongly overlapping port sets
// are merged, so minor per-bot differences (a port seen in one flow but
// not another) do not fragment a botnet into many campaigns.
package campaign

import (
	"fmt"
	"sort"
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

// String renders the signature for display and map keys.
func (s Signature) String() string {
	parts := make([]string, len(s.Ports))
	for i, p := range s.Ports {
		parts[i] = fmt.Sprintf("%d", p)
	}
	key := strings.Join(parts, ",")
	if s.Tool != "" {
		key += "|" + s.Tool
	}
	return key
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

// signatureOf derives a record's scanning signature.
func signatureOf(rec *feed.Record) (Signature, bool) {
	total := 0
	for _, n := range rec.TargetPorts {
		total += n
	}
	if total == 0 {
		return Signature{}, false
	}
	var ports []uint16
	for p, n := range rec.TargetPorts {
		if float64(n)/float64(total) >= minPortShare {
			ports = append(ports, p)
		}
	}
	if len(ports) == 0 {
		return Signature{}, false
	}
	sort.Slice(ports, func(i, j int) bool { return ports[i] < ports[j] })
	return Signature{Ports: ports, Tool: rec.Tool}, true
}

// jaccard computes set overlap of two sorted port slices.
func jaccard(a, b []uint16) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	set := make(map[uint16]bool, len(a))
	for _, p := range a {
		set[p] = true
	}
	inter := 0
	for _, p := range b {
		if set[p] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// Infer groups IoT-labeled records into campaigns.
func Infer(records []feed.Record) []Campaign {
	return infer(func(visit func(*feed.Record)) {
		for i := range records {
			visit(&records[i])
		}
	})
}

// infer groups the IoT-labeled records each visits into campaigns. It
// keeps no pointer to a record.
func infer(each func(visit func(*feed.Record))) []Campaign {
	// Pass 1: exact-signature grouping.
	groups := map[string]*Campaign{}
	seen := map[string]map[string]bool{} // signature key → member IPs
	each(func(rec *feed.Record) {
		if !rec.IsIoT() || rec.Benign {
			return
		}
		sig, ok := signatureOf(rec)
		if !ok {
			return
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
	})

	// Pass 2: merge overlapping signatures (largest first absorbs).
	list := make([]*Campaign, 0, len(groups))
	for _, g := range groups {
		list = append(list, g)
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].Size() != list[j].Size() {
			return list[i].Size() > list[j].Size()
		}
		return list[i].Signature.String() < list[j].Signature.String()
	})
	var merged []*Campaign
	for _, g := range list {
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
		members := make(map[string]bool, len(m.IPs))
		for _, ip := range m.IPs {
			members[ip] = true
		}
		for _, ip := range g.IPs {
			if !members[ip] {
				m.IPs = append(m.IPs, ip)
			}
		}
		for cc, n := range g.Countries {
			m.Countries[cc] += n
		}
		m.Records += g.Records
	}

	// Pass 3: size filter and stable output order.
	var out []Campaign
	for _, g := range merged {
		if g.Size() >= minSize {
			sort.Strings(g.IPs)
			out = append(out, *g)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Size() != out[j].Size() {
			return out[i].Size() > out[j].Size()
		}
		return out[i].Signature.String() < out[j].Signature.String()
	})
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
