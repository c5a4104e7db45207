package main

// exiotctl campaigns: render the server's campaign table the way an
// analyst reads it — one row per campaign with its stable ID, size,
// ports signature, top countries, and lifetime — instead of a raw JSON
// dump. -json preserves the old passthrough; -min-size forwards the
// server-side filter.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// campaignRow mirrors the fields of one tracked campaign on the wire
// that the table shows.
type campaignRow struct {
	ID        string         `json:"id"`
	Signature string         `json:"signature"`
	Tool      string         `json:"tool"`
	Ports     []uint16       `json:"ports"`
	Devices   int            `json:"devices"`
	Records   int            `json:"records"`
	Countries map[string]int `json:"countries"`
	FirstSeen time.Time      `json:"first_seen"`
	LastSeen  time.Time      `json:"last_seen"`
	Status    string         `json:"status"`
}

type campaignsResponse struct {
	Count     int           `json:"count"`
	Tracked   bool          `json:"tracked"`
	Campaigns []campaignRow `json:"campaigns"`
}

func runCampaigns(c client, args []string, out io.Writer) error {
	fs := newFlagSet("campaigns")
	minSize := fs.String("min-size", "", "drop campaigns with fewer devices")
	asJSON := fs.Bool("json", false, "emit the raw server response")
	if err := fs.Parse(args); err != nil {
		return err
	}
	q := url.Values{}
	if *minSize != "" {
		q.Set("min_size", *minSize)
	}
	if *asJSON {
		return c.get("/api/v1/campaigns", q)
	}
	raw, err := c.getRaw("/api/v1/campaigns", q)
	if err != nil {
		return err
	}
	var resp campaignsResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return fmt.Errorf("unexpected campaigns response: %w", err)
	}
	printCampaignTable(out, &resp)
	return nil
}

func printCampaignTable(out io.Writer, resp *campaignsResponse) {
	mode := "no tracker"
	if resp.Tracked {
		mode = "tracked"
	}
	fmt.Fprintf(out, "%d campaign(s) (%s)\n", resp.Count, mode)
	if resp.Count == 0 {
		return
	}
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ID\tDEVICES\tRECORDS\tPORTS\tTOOL\tCOUNTRIES\tFIRST SEEN\tLAST SEEN\tSTATUS")
	for _, row := range resp.Campaigns {
		tool := row.Tool
		if tool == "" {
			tool = "-"
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%s\t%s\t%s\t%s\t%s\n",
			row.ID, row.Devices, row.Records, portList(row.Ports), tool,
			topCountries(row.Countries, 3), seenStamp(row.FirstSeen),
			seenStamp(row.LastSeen), orDash(row.Status))
	}
	tw.Flush()
}

func portList(ports []uint16) string {
	if len(ports) == 0 {
		return "-"
	}
	parts := make([]string, len(ports))
	for i, p := range ports {
		parts[i] = fmt.Sprintf("%d", p)
	}
	return strings.Join(parts, ",")
}

// topCountries renders the n most common member countries as
// "CN:40,BR:12" (count-descending, code ascending on ties).
func topCountries(countries map[string]int, n int) string {
	if len(countries) == 0 {
		return "-"
	}
	type kv struct {
		cc string
		n  int
	}
	items := make([]kv, 0, len(countries))
	for cc, cnt := range countries {
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
	parts := make([]string, n)
	for i := 0; i < n; i++ {
		parts[i] = fmt.Sprintf("%s:%d", items[i].cc, items[i].n)
	}
	return strings.Join(parts, ",")
}

func seenStamp(t time.Time) string {
	if t.IsZero() {
		return "-"
	}
	return t.UTC().Format("2006-01-02 15:04")
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
