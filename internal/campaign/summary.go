package campaign

import (
	"slices"
	"strings"

	"exiot/internal/feed"
)

// This file is per-block inference: pass 1 over each block of a feed,
// kept with the block, and the merge of the blocks' results into the
// feed's campaigns.

// Summary is campaign pass 1 over one run of records: for each
// signature, how many records carry it, their distinct source IPs and
// their country tally. It is immutable once built; the zero Summary
// holds no record.
type Summary struct {
	groups []group // ascending key
}

// group is one signature's share of a Summary.
type group struct {
	key     string // the signature's String
	records int
	ips     []string // ascending, distinct
	// countries tallies the records' country codes, ascending by code;
	// records without one are not counted.
	countries []tally
}

type tally struct {
	cc string
	n  int
}

// Summarizer builds Summaries, reusing its buffers from one to the
// next. The zero value is ready to use.
type Summarizer struct {
	ports []uint16
	seen  []portCount
	key   []byte
	// names holds one copy of each signature key handed out, so records
	// sharing a signature share its key's bytes.
	names map[string]string
	// open holds the records added since the last Summary, a group per
	// signature; at finds a signature's group there.
	open []pending
	at   map[string]int
}

// pending is one signature's records in the run under way.
type pending struct {
	key      string
	records  int
	ips, ccs []string // with repeats; ccs holds no ""
}

// Key returns rec's signature key, or "" when rec joins no campaign: it
// is not labeled IoT, it is benign, or none of its ports carries enough
// of its packets. A record is summarized by its key, IP and country, so
// a holder of those three can add it again without the record.
func (s *Summarizer) Key(rec *feed.Record) string {
	if !member(rec) {
		return ""
	}
	var ok bool
	if s.ports, s.seen, ok = appendPorts(s.ports[:0], s.seen, rec); !ok {
		return ""
	}
	s.key = appendKey(s.key[:0], s.ports, rec.Tool)
	if name, ok := s.names[string(s.key)]; ok {
		return name
	}
	if s.names == nil {
		s.names = make(map[string]string)
	}
	name := string(s.key)
	s.names[name] = name
	return name
}

// Add adds one record to the run under way by its signature key, which
// Key returned and is not "", its source IP and its country code.
func (s *Summarizer) Add(key, ip, cc string) {
	k, ok := s.at[key]
	if !ok {
		if s.at == nil {
			s.at = make(map[string]int)
		}
		k = len(s.open)
		s.at[key] = k
		if k < cap(s.open) { // reuse the buffers a former group left
			s.open = s.open[:k+1]
			g := &s.open[k]
			g.records, g.ips, g.ccs = 0, g.ips[:0], g.ccs[:0]
		} else {
			s.open = append(s.open, pending{})
		}
		s.open[k].key = key
	}
	g := &s.open[k]
	g.records++
	g.ips = append(g.ips, ip)
	if cc != "" {
		g.ccs = append(g.ccs, cc)
	}
}

// Summary returns the summary of the records added since the last call.
// Its groups, IPs and tallies each take one allocation of exactly their
// size.
func (s *Summarizer) Summary() Summary {
	if len(s.open) == 0 {
		return Summary{}
	}
	slices.SortFunc(s.open, func(a, b pending) int { return strings.Compare(a.key, b.key) })
	nips, ntallies := 0, 0
	for i := range s.open {
		g := &s.open[i]
		slices.Sort(g.ips)
		g.ips = slices.Compact(g.ips)
		slices.Sort(g.ccs)
		nips += len(g.ips)
		for k := range g.ccs {
			if k == 0 || g.ccs[k] != g.ccs[k-1] {
				ntallies++
			}
		}
	}
	sum := Summary{groups: make([]group, len(s.open))}
	ips, tallies := make([]string, 0, nips), make([]tally, 0, ntallies)
	for i, g := range s.open {
		ip, t := len(ips), len(tallies)
		ips = append(ips, g.ips...)
		for k := 0; k < len(g.ccs); {
			l := k + 1
			for l < len(g.ccs) && g.ccs[l] == g.ccs[k] {
				l++
			}
			tallies = append(tallies, tally{g.ccs[k], l - k})
			k = l
		}
		sum.groups[i] = group{
			key:       g.key,
			records:   g.records,
			ips:       ips[ip:len(ips):len(ips)],
			countries: tallies[t:len(tallies):len(tallies)],
		}
	}
	s.open = s.open[:0]
	clear(s.at)
	return sum
}

// Merge folds the summaries of the runs that make up a feed into the
// feed's campaigns: exactly what Infer returns over the same records.
// Each signature's IPs are the sorted, distinct union of its runs'
// lists, and passes 2 and 3 are Infer's. The campaigns share nothing with the
// summaries.
func Merge(parts []*Summary) []Campaign {
	var all []*group
	for _, p := range parts {
		for i := range p.groups {
			all = append(all, &p.groups[i])
		}
	}
	slices.SortFunc(all, func(a, b *group) int { return strings.Compare(a.key, b.key) })
	var groups []keyed
	for i := 0; i < len(all); {
		j := i + 1
		for j < len(all) && all[j].key == all[i].key {
			j++
		}
		groups = append(groups, fold(all[i:j]))
		i = j
	}
	return cluster(groups)
}

// fold merges one signature's groups, from every run that holds it.
func fold(gs []*group) keyed {
	key := gs[0].key
	c := &Campaign{Signature: parseKey(key), Countries: map[string]int{}}
	n := 0
	for _, g := range gs {
		n += len(g.ips)
	}
	c.IPs = make([]string, 0, n)
	for _, g := range gs {
		c.Records += g.records
		for _, t := range g.countries {
			c.Countries[t.cc] += t.n
		}
		c.IPs = append(c.IPs, g.ips...)
	}
	slices.Sort(c.IPs)
	c.IPs = slices.Compact(c.IPs)
	return keyed{key, c}
}
