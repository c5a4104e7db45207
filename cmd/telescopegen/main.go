// Command telescopegen generates synthetic network-telescope traffic as
// hourly gzip-compressed pcap files — the stand-in for CAIDA's hourly
// telescope captures. The output directory can be consumed by
// cmd/flowsampler exactly as the paper's flow-detection module consumes
// newly published capture hours.
//
// Usage:
//
//	telescopegen -out captures/ -seed 42 -days 1 -infected 300
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"exiot/internal/pcapio"
	"exiot/internal/simnet"
	"exiot/internal/telemetry"
)

func main() {
	var (
		out       = flag.String("out", "captures", "output directory for hourly pcap.gz files")
		seed      = flag.Int64("seed", 42, "world seed")
		days      = flag.Int("days", 1, "simulated days")
		hours     = flag.Int("hours", 0, "limit to the first N hours (0 = whole span)")
		infected  = flag.Int("infected", 300, "infected IoT devices")
		nonIoT    = flag.Int("noniot", 60, "non-IoT scanning hosts")
		research  = flag.Int("research", 6, "research scanners")
		misconfig = flag.Int("misconfig", 40, "misconfigured nodes")
		backscat  = flag.Int("backscatter", 10, "DDoS backscatter sources")
		capPkts   = flag.Int("cap", 4000, "max packets per host per hour")
	)
	flag.Parse()
	if err := run(*out, *seed, *days, *hours, *infected, *nonIoT, *research, *misconfig, *backscat, *capPkts); err != nil {
		log.Fatal(err)
	}
}

func run(out string, seed int64, days, hours, infected, nonIoT, research, misconfig, backscat, capPkts int) error {
	cfg := simnet.DefaultConfig(seed)
	cfg.Days = days
	cfg.NumInfected = infected
	cfg.NumNonIoT = nonIoT
	cfg.NumResearch = research
	cfg.NumMisconfig = misconfig
	cfg.NumBackscat = backscat
	cfg.MaxPacketsPerHostHour = capPkts
	w := simnet.NewWorld(cfg)

	if err := os.MkdirAll(out, 0o755); err != nil {
		return fmt.Errorf("create output dir: %w", err)
	}
	total := days * 24
	if hours > 0 && hours < total {
		total = hours
	}
	var packets int64
	for h := 0; h < total; h++ {
		hour := w.Start().Add(time.Duration(h) * time.Hour)
		pkts := w.GenerateHour(hour)
		hw, err := pcapio.CreateHour(out, hour)
		if err != nil {
			return err
		}
		for i := range pkts {
			if err := hw.WritePacket(&pkts[i]); err != nil {
				hw.Close()
				return err
			}
		}
		if err := hw.Close(); err != nil {
			return err
		}
		packets += int64(len(pkts))
		fmt.Printf("%s  %8d packets\n", pcapio.HourFileName(hour), len(pkts))
	}
	fmt.Printf("wrote %d hour(s), %d packets, world: %d infected / %d non-IoT / %d research\n",
		total, packets, infected, nonIoT, research)
	if summary := telemetry.Default().LayerSummary(); summary != "" {
		fmt.Print(summary)
	}
	return nil
}
