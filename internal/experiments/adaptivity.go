package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"exiot/internal/campaign"
	"exiot/internal/core"
	"exiot/internal/device"
	"exiot/internal/feed"
	"exiot/internal/packet"
	"exiot/internal/simnet"
)

// AdaptivityDayRow is one day of the emerging-botnet experiment.
type AdaptivityDayRow struct {
	Day           int
	ModelLabeled  int
	LabeledIoT    int
	IoTRate       float64
	BannerLabeled int
}

// AdaptivityResult is the emerging-botnet experiment: how the daily
// retrain adapts to a previously unseen family.
type AdaptivityResult struct {
	FamilyName    string
	EmergenceDay  int
	EmergingHosts int
	Rows          []AdaptivityDayRow
	// FirstDayRate and LastDayRate summarize the adaptation: the model's
	// IoT-labeling rate on emerging-family flows on emergence day vs. the
	// final day.
	FirstDayRate float64
	LastDayRate  float64
}

// Adaptivity runs the emerging-botnet experiment: a new, deliberately
// tool-like family activates on simnet.EmergenceDay of a multi-day run;
// the feed's model-assigned labels on its flows are tracked per day. The
// paper claims the 24 h retrain over the 14-day window lets the classifier
// "adaptively learn ... evolving IoT botnets" — this measures that.
func Adaptivity(scale Scale) (AdaptivityResult, error) {
	if scale.Days < 3 {
		scale.Days = 3
	}
	cfg := scale.systemConfig()
	count := scale.Infected / 5
	if count < 40 {
		count = 40
	}
	cfg.World.Emerging = count
	sys := core.NewSystem(cfg)
	if err := sys.RunAll(); err != nil {
		return AdaptivityResult{}, err
	}

	w := sys.World()
	emerging := map[string]bool{}
	for _, h := range w.Hosts() {
		if h.Family != nil && h.Family.Name == device.EmergingFamily.Name {
			emerging[h.IP.String()] = true
		}
	}

	res := AdaptivityResult{
		FamilyName:    device.EmergingFamily.Name,
		EmergenceDay:  simnet.EmergenceDay,
		EmergingHosts: len(emerging),
	}
	byDay := map[int]*AdaptivityDayRow{}
	for _, rec := range sys.Feed().Historical().Find(nil) {
		if !emerging[rec.IP] {
			continue
		}
		day := int(rec.AppearedAt.Sub(w.Start()) / (24 * time.Hour))
		row, ok := byDay[day]
		if !ok {
			row = &AdaptivityDayRow{Day: day}
			byDay[day] = row
		}
		switch rec.LabelSource {
		case feed.SourceModel:
			row.ModelLabeled++
			if rec.IsIoT() {
				row.LabeledIoT++
			}
		case feed.SourceBanner:
			row.BannerLabeled++
		}
	}
	for _, row := range byDay {
		if row.ModelLabeled > 0 {
			row.IoTRate = float64(row.LabeledIoT) / float64(row.ModelLabeled)
		}
		res.Rows = append(res.Rows, *row)
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].Day < res.Rows[j].Day })
	for _, row := range res.Rows {
		if row.ModelLabeled == 0 {
			continue
		}
		if res.FirstDayRate == 0 && row.Day <= res.EmergenceDay+1 {
			res.FirstDayRate = row.IoTRate
		}
		res.LastDayRate = row.IoTRate
	}
	return res, nil
}

// String renders the adaptivity experiment.
func (r AdaptivityResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Adaptivity — emerging botnet %q (%d devices, activates day %d)\n",
		r.FamilyName, r.EmergingHosts, r.EmergenceDay)
	fmt.Fprintf(&sb, "  %4s %14s %12s %10s %14s\n", "day", "model-labeled", "labeled IoT", "IoT rate", "banner-labeled")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %4d %14d %12d %9.1f%% %14d\n",
			row.Day, row.ModelLabeled, row.LabeledIoT, 100*row.IoTRate, row.BannerLabeled)
	}
	fmt.Fprintf(&sb, "  emergence-day IoT rate %.1f%% → final-day %.1f%% (daily retrain adapts)\n",
		100*r.FirstDayRate, 100*r.LastDayRate)
	return sb.String()
}

// CampaignEntry is one inferred campaign summary.
type CampaignEntry struct {
	Signature string
	Size      int
	Records   int
	Countries []string
}

// CampaignResult is the campaign-inference extension over a run's feed.
type CampaignResult struct {
	Campaigns []CampaignEntry
	// FamilyPurity measures, over campaign members with ground truth,
	// the fraction belonging to each campaign's majority malware family.
	FamilyPurity float64
}

// Campaigns infers coordinated scanning campaigns from the run's IoT
// records and scores them against the simulator's malware-family ground
// truth.
func Campaigns(e *Env) CampaignResult {
	inferred := campaign.Infer(e.Records())
	res := CampaignResult{}
	w := e.Sys.World()

	totalMembers, majoritySum := 0, 0
	for _, c := range inferred {
		entry := CampaignEntry{
			Signature: c.Signature.String(),
			Size:      c.Size(),
			Records:   c.Records,
			Countries: c.TopCountries(3),
		}
		res.Campaigns = append(res.Campaigns, entry)

		families := map[string]int{}
		members := 0
		for _, ipStr := range c.IPs {
			ip, err := packet.ParseIP(ipStr)
			if err != nil {
				continue
			}
			h, ok := w.HostByIP(ip)
			if !ok || h.Family == nil {
				continue
			}
			families[h.Family.Name]++
			members++
		}
		best := 0
		for _, n := range families {
			if n > best {
				best = n
			}
		}
		totalMembers += members
		majoritySum += best
	}
	if totalMembers > 0 {
		res.FamilyPurity = float64(majoritySum) / float64(totalMembers)
	}
	return res
}

// String renders the campaign inference.
func (r CampaignResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Campaign inference — %d campaigns, family purity %.1f%%\n",
		len(r.Campaigns), 100*r.FamilyPurity)
	fmt.Fprintf(&sb, "  %-28s %8s %8s %s\n", "signature (ports|tool)", "devices", "records", "top countries")
	show := r.Campaigns
	if len(show) > 8 {
		show = show[:8]
	}
	for _, c := range show {
		fmt.Fprintf(&sb, "  %-30s %8d %8d %s\n", c.Signature, c.Size, c.Records,
			strings.Join(c.Countries, ","))
	}
	if len(r.Campaigns) > len(show) {
		fmt.Fprintf(&sb, "  ... %d more\n", len(r.Campaigns)-len(show))
	}
	return sb.String()
}
