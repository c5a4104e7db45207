// Campaignhunt: infer coordinated scanning campaigns from the CTI feed —
// the analysis the paper's authors build on top of eX-IoT in their
// campaign-curation work. The example runs a deployment, pulls the IoT
// records, clusters them by scanning signature, and checks the clusters
// against the simulator's malware-family ground truth.
package main

import (
	"fmt"
	"log"
	"strings"

	"exiot"
	"exiot/internal/api"
	"exiot/internal/campaign"
	"exiot/internal/feed"
	"exiot/internal/packet"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cfg := exiot.DefaultConfig(99)
	cfg.World.NumInfected = 500
	cfg.World.Days = 2
	sys := exiot.NewSystem(cfg)
	fmt.Println("running two simulated days...")
	if err := sys.RunAll(); err != nil {
		return err
	}

	records := sys.Feed().Records(api.Query{Label: feed.LabelIoT, Limit: 0})
	fmt.Printf("feed holds %d IoT records\n\n", len(records))

	campaigns := campaign.Infer(records)
	fmt.Printf("%-34s %8s %8s %-12s %s\n", "signature (ports|tool)", "devices", "records", "countries", "majority family (truth)")
	for _, c := range campaigns {
		family := majorityFamily(sys, &c)
		fmt.Printf("%-34s %8d %8d %-12s %s\n",
			c.Signature.String(), c.Size(), c.Records,
			strings.Join(c.TopCountries(3), ","), family)
	}
	fmt.Println("\nThe same inference is served live at GET /api/v1/campaigns.")
	return nil
}

// majorityFamily resolves a campaign's dominant ground-truth malware
// family (evaluation only — the inference itself never sees it).
func majorityFamily(sys *exiot.System, c *campaign.Campaign) string {
	counts := map[string]int{}
	for _, ipStr := range c.IPs {
		ip, err := packet.ParseIP(ipStr)
		if err != nil {
			continue
		}
		if h, ok := sys.World().HostByIP(ip); ok && h.Family != nil {
			counts[h.Family.Name]++
		}
	}
	best, bestN, total := "unknown", 0, 0
	for name, n := range counts {
		total += n
		if n > bestN {
			best, bestN = name, n
		}
	}
	if total == 0 {
		return "unknown"
	}
	return fmt.Sprintf("%s (%d/%d)", best, bestN, total)
}
