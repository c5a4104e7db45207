// Command exiotctl queries an eX-IoT feed server's REST API.
//
// Usage:
//
//	exiotctl -server http://127.0.0.1:8080 -key dev-key snapshot
//	exiotctl records -label IoT -country CN -limit 20
//	exiotctl record 203.0.113.7
//	exiotctl trace 203.0.113.7
//	exiotctl stats ports
//	exiotctl campaigns
//	exiotctl export > feed.ndjson
//	exiotctl alert -prefix 198.51.100.0/24 -email soc@example.org
//
// The state and capinfo subcommands work offline (no server or key
// needed): state against a feed server's durable state directory,
// capinfo against a telescope capture file:
//
//	exiotctl state -dir /var/lib/exiot/state inspect
//	exiotctl state -dir /var/lib/exiot/state verify
//	exiotctl capinfo telescope-20260809-14.pcap.gz
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"strings"

	"exiot/internal/durable"
	"exiot/internal/pipeline"
	"exiot/internal/wire"
)

func main() {
	var (
		server = flag.String("server", "http://127.0.0.1:8080", "feed server base URL")
		key    = flag.String("key", "dev-key", "API key")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: exiotctl [flags] snapshot|records|record <ip>|trace <ip>|stats <kind>|campaigns|export|alert|capinfo <file>|state")
		os.Exit(2)
	}
	if err := run(*server, *key, flag.Args()); err != nil {
		log.Fatal(err)
	}
}

func run(server, key string, args []string) error {
	c := client{base: strings.TrimRight(server, "/"), key: key}
	switch args[0] {
	case "snapshot":
		return c.get("/api/v1/snapshot", nil)
	case "records":
		fs := flag.NewFlagSet("records", flag.ExitOnError)
		label := fs.String("label", "", "IoT or non-IoT")
		country := fs.String("country", "", "country code")
		asn := fs.String("asn", "", "autonomous system number")
		active := fs.String("active", "", "true/false")
		prefix := fs.String("prefix", "", "CIDR filter")
		limit := fs.String("limit", "20", "max records")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		q := url.Values{}
		for k, v := range map[string]string{
			"label": *label, "country": *country, "asn": *asn,
			"active": *active, "prefix": *prefix, "limit": *limit,
		} {
			if v != "" {
				q.Set(k, v)
			}
		}
		return c.get("/api/v1/records", q)
	case "record":
		if len(args) < 2 {
			return fmt.Errorf("usage: exiotctl record <ip>")
		}
		return c.get("/api/v1/records/"+args[1], nil)
	case "trace":
		// Replays a record's full lineage: provenance summary plus the
		// per-stage timing spans when the event was traced.
		if len(args) < 2 {
			return fmt.Errorf("usage: exiotctl trace <ip>")
		}
		return c.get("/api/v1/records/"+args[1]+"/why", nil)
	case "campaigns":
		return runCampaigns(c, args[1:], os.Stdout)
	case "export":
		return c.get("/api/v1/export", nil)
	case "stats":
		if len(args) < 2 {
			return fmt.Errorf("usage: exiotctl stats countries|ports|vendors")
		}
		return c.get("/api/v1/stats/"+args[1], nil)
	case "alert":
		fs := flag.NewFlagSet("alert", flag.ExitOnError)
		prefix := fs.String("prefix", "", "IP block to watch (CIDR)")
		email := fs.String("email", "", "notification address")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if *prefix == "" || *email == "" {
			return fmt.Errorf("alert requires -prefix and -email")
		}
		body, err := json.Marshal(map[string]string{"prefix": *prefix, "email": *email})
		if err != nil {
			return err
		}
		return c.post("/api/v1/alerts", body)
	case "capinfo":
		return runCapinfo(args[1:], os.Stdout)
	case "state":
		return runState(args[1:], os.Stdout)
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}

// runState inspects a durable state directory offline: per-file
// snapshot and WAL segment metadata (inspect) or CRC validation with a
// non-zero exit on damage (verify).
func runState(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("state", flag.ExitOnError)
	dir := fs.String("dir", "", "durable state directory (exiotd -state-dir)")
	asJSON := fs.Bool("json", false, "emit the raw inspection report as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("state requires -dir")
	}
	sub := "inspect"
	if fs.NArg() > 0 {
		sub = fs.Arg(0)
	}
	switch sub {
	case "inspect":
		info, err := durable.Inspect(*dir)
		if err != nil {
			return err
		}
		if *asJSON {
			raw, err := json.MarshalIndent(info, "", "  ")
			if err != nil {
				return err
			}
			fmt.Fprintln(out, string(raw))
			return nil
		}
		refused := printStateReport(out, info)
		if err := printWALTraces(out, *dir); err != nil {
			return err
		}
		if refused > 0 {
			return fmt.Errorf("%d file(s) written by another exiotd release", refused)
		}
		return nil
	case "verify":
		problems, err := durable.Verify(*dir)
		if err != nil {
			return err
		}
		if len(problems) == 0 {
			fmt.Fprintln(out, "ok: every snapshot and WAL segment passes CRC validation")
			return nil
		}
		for _, p := range problems {
			fmt.Fprintln(out, "PROBLEM:", p)
		}
		return fmt.Errorf("%d problem(s) found", len(problems))
	default:
		return fmt.Errorf("usage: exiotctl state -dir <dir> inspect|verify")
	}
}

// printStateReport prints one row per file and returns how many another
// release wrote: recovery stops on those, so they are not CORRUPT.
func printStateReport(out io.Writer, info *durable.DirInfo) (refused int) {
	fmt.Fprintf(out, "state directory %s\n", info.Dir)
	fmt.Fprintf(out, "snapshots (%d):\n", len(info.Snapshots))
	for _, s := range info.Snapshots {
		status := "valid"
		switch {
		case s.Refused:
			status = "REFUSED: " + s.Error
			refused++
		case !s.Valid:
			status = "CORRUPT: " + s.Error
		}
		fmt.Fprintf(out, "  %s  %8d bytes  last_seq=%d events=%d taken=%s  %s\n",
			s.Name, s.Size, s.Meta.LastSeq, s.Meta.EventCount,
			s.Meta.TakenAt.Format("2006-01-02T15:04:05Z"), status)
	}
	fmt.Fprintf(out, "wal segments (%d):\n", len(info.Segments))
	for _, s := range info.Segments {
		status := "valid"
		switch {
		case s.Refused:
			status = "REFUSED: " + s.Error
			refused++
		case s.Error != "":
			status = "CORRUPT: " + s.Error
		case s.TornBytes > 0:
			status = fmt.Sprintf("TORN TAIL: %d bytes after seq %d", s.TornBytes, s.LastSeq)
		}
		fmt.Fprintf(out, "  %s  %8d bytes  seq %d..%d  %d records (%d events, %d retrains)  %s\n",
			s.Name, s.Size, s.FirstSeq, s.LastSeq, s.Records, s.Events, s.Retrains, status)
	}
	return refused
}

// printWALTraces decodes the sampler events logged in the WAL and lists
// their deterministic trace IDs — the offline half of a forensics join:
// the same IDs key the live server's /traces store and each feed
// record's provenance.trace_id. An event that does not decode is listed
// by sequence number and makes the command fail, as a segment from
// another release does: a log this tool cannot read must not look like
// a log without traces.
func printWALTraces(out io.Writer, dir string) error {
	type line struct {
		seq  uint64
		kind string
		ip   string
		id   string
	}
	var lines []line
	var undecodable []string
	err := durable.ScanRecords(dir, func(rec durable.Record) error {
		if rec.Type != durable.RecordEvent {
			return nil
		}
		e, err := pipeline.DecodeEvent(wire.Frame{Version: wire.Version2, Kind: wire.Kind(rec.Kind), Payload: rec.Payload})
		if err != nil {
			undecodable = append(undecodable, fmt.Sprintf("seq %6d  frame kind %d: %v", rec.Seq, rec.Kind, err))
			return nil
		}
		if e.TraceID == 0 {
			return nil // reports and pre-tracing events carry no ID
		}
		l := line{seq: rec.Seq, id: e.TraceID.String()}
		switch e.Kind {
		case pipeline.SamplerBatch:
			l.kind, l.ip = "batch", e.Batch.IPString
		case pipeline.SamplerFlowEnd:
			l.kind, l.ip = "flow_end", e.IP.String()
		}
		lines = append(lines, l)
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "traced wal events (%d):\n", len(lines))
	for _, l := range lines {
		fmt.Fprintf(out, "  seq %6d  %-8s  %-15s  trace %s\n", l.seq, l.kind, l.ip, l.id)
	}
	if len(undecodable) > 0 {
		fmt.Fprintf(out, "UNDECODABLE wal events (%d):\n", len(undecodable))
		for _, l := range undecodable {
			fmt.Fprintf(out, "  %s\n", l)
		}
		return fmt.Errorf("%d WAL event(s) could not be decoded", len(undecodable))
	}
	return nil
}

type client struct {
	base string
	key  string
}

// newFlagSet builds a subcommand flag set with the standard exit mode.
func newFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet(name, flag.ExitOnError)
}

func (c client) get(path string, q url.Values) error {
	u := c.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	return c.do(req)
}

// getRaw fetches a path and returns the response body for subcommands
// that render their own output instead of pretty-printing JSON.
func (c client) getRaw(path string, q url.Values) ([]byte, error) {
	u := c.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-API-Key", c.key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		return nil, fmt.Errorf("server returned %s: %s", resp.Status, raw)
	}
	return raw, nil
}

func (c client) post(path string, body []byte) error {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req)
}

func (c client) do(req *http.Request) error {
	req.Header.Set("X-API-Key", c.key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	// Pretty-print JSON when possible.
	var pretty bytes.Buffer
	if json.Indent(&pretty, raw, "", "  ") == nil {
		raw = pretty.Bytes()
	}
	fmt.Println(string(raw))
	if resp.StatusCode >= 400 {
		return fmt.Errorf("server returned %s", resp.Status)
	}
	return nil
}
