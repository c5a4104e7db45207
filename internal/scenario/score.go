package scenario

import (
	"hash/fnv"
	"time"

	"exiot/internal/feed"
	"exiot/internal/packet"
	"exiot/internal/pipeline"
	"exiot/internal/simnet"
	"exiot/internal/trw"
)

// Result is one scenario's scored pipeline run.
type Result struct {
	Name  string `json:"name"`
	Hours int    `json:"hours"`

	// Volume and speed (speed excludes world generation).
	Packets   int64 `json:"packets"`
	ElapsedNs int64 `json:"elapsed_ns,omitempty"`
	Records   int   `json:"records"`

	// Scan detection accuracy over every ground-truth scanner in the
	// world (background population included): did the TRW path feed the
	// hosts that really scan, and only them?
	ScanPrecision float64 `json:"scan_precision"`
	ScanRecall    float64 `json:"scan_recall"`

	// Injected-cohort accuracy: recall over the scenario's Scanner=true
	// hosts (the adversarial behaviour under test) and the count of
	// Scanner=false injected hosts that leaked into the feed.
	InjectedRecall   float64 `json:"injected_recall"`
	InjectedFalseFed int     `json:"injected_false_fed"`

	// IoT-vs-non-IoT label accuracy among fed records with ground truth
	// (the per-scenario Tables III/IV view).
	IoTPrecision float64 `json:"iot_precision"`
	IoTRecall    float64 `json:"iot_recall"`
}

// Run builds the scenario's world from seed, drives the full
// TRW→probe→classify pipeline over its hours, and scores the feed
// against ground truth. hours <= 0 uses the scenario's canonical span.
func Run(sc Scenario, seed int64, hours int) Result {
	res, _, _ := RunTap(sc, seed, hours)
	return res
}

// RunTap is Run, additionally returning an FNV-1a digest of the
// canonical sampler event stream (for determinism proofs: identical
// digests mean identical detector behaviour, byte for byte) and the
// scenario's ground truth.
func RunTap(sc Scenario, seed int64, hours int) (Result, uint64, Truth) {
	if hours <= 0 {
		hours = sc.Hours
	}
	w, truth := sc.Setup(seed, hours)

	// Generate every hour up front so the scored elapsed time covers
	// only detection and the feed back half.
	pergen := make([][]packet.Packet, hours)
	var packets int64
	for h := range pergen {
		pergen[h] = w.GenerateHour(w.Start().Add(time.Duration(h) * time.Hour))
		packets += int64(len(pergen[h]))
	}

	// The digest taps the sampler; the events go on into the shipped
	// back half, exactly as in pipeline.Local.
	back, err := pipeline.NewBackHalf(pipeline.DefaultLocalConfig(), w, w.Registry(), nil)
	if err != nil {
		panic(err) // unreachable: no state directory
	}
	var hourEnd time.Time
	digest := fnv.New64a()
	var encBuf []byte
	sampler := pipeline.NewSampler(trw.Default(), func(e pipeline.SamplerEvent) {
		if kind, data, err := pipeline.AppendEncodeEvent(encBuf[:0], e); err == nil {
			digest.Write([]byte{byte(kind)})
			digest.Write(data)
			encBuf = data[:0]
		}
		back.Deliver(e, hourEnd)
	})

	started := time.Now()
	for h, pkts := range pergen {
		hourEnd = w.Start().Add(time.Duration(h+1) * time.Hour)
		sampler.ProcessHour(pkts, hourEnd)
		back.EndHour(hourEnd, false)
	}
	sampler.Flush(hourEnd)
	back.EndHour(hourEnd, true)
	elapsed := time.Since(started)

	res := score(w, truth, back.Server())
	res.Name = sc.Name
	res.Hours = hours
	res.Packets = packets
	res.ElapsedNs = elapsed.Nanoseconds()
	return res, digest.Sum64(), truth
}

// score compares the feed against the world's ground truth.
func score(w *simnet.World, truth Truth, srv *pipeline.Server) Result {
	var res Result
	recs := srv.Historical().Find(nil)
	res.Records = len(recs)

	// Collapse record instances to distinct fed sources, keeping one
	// record per IP for the label check (instances of one source carry
	// the same ground truth).
	fed := make(map[packet.IP]feed.Record, len(recs))
	for _, rec := range recs {
		ip, err := packet.ParseIP(rec.IP)
		if err != nil {
			continue
		}
		fed[ip] = rec
	}

	// Scan detection over the whole world.
	var trueScanners, fedTrue int
	for _, h := range w.Hosts() {
		scanner := isScannerKind(h.Kind)
		if scanner {
			trueScanners++
		}
		if _, ok := fed[h.IP]; ok && scanner {
			fedTrue++
		}
	}
	if len(fed) > 0 {
		res.ScanPrecision = float64(fedTrue) / float64(len(fed))
	}
	if trueScanners > 0 {
		res.ScanRecall = float64(fedTrue) / float64(trueScanners)
	}

	// Injected cohort.
	var injScanners, injFed int
	for ip, inj := range truth {
		_, isFed := fed[ip]
		if inj.Scanner {
			injScanners++
			if isFed {
				injFed++
			}
		} else if isFed {
			res.InjectedFalseFed++
		}
	}
	if injScanners > 0 {
		res.InjectedRecall = float64(injFed) / float64(injScanners)
	}

	// IoT labels among fed records with ground truth.
	var tp, fp, fn int
	for ip, rec := range fed {
		h, ok := w.HostByIP(ip)
		if !ok {
			continue
		}
		predIoT := rec.Label == feed.LabelIoT
		switch {
		case predIoT && h.IsIoT():
			tp++
		case predIoT && !h.IsIoT():
			fp++
		case !predIoT && h.IsIoT():
			fn++
		}
	}
	if tp+fp > 0 {
		res.IoTPrecision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		res.IoTRecall = float64(tp) / float64(tp+fn)
	}
	return res
}

// isScannerKind reports whether hosts of kind k genuinely scan — the
// ground-truth positive class for scan detection. Misconfigured nodes
// and backscatter sources emit telescope traffic without scanning.
func isScannerKind(k simnet.HostKind) bool {
	switch k {
	case simnet.KindInfectedIoT, simnet.KindNonIoTScanner, simnet.KindResearchScanner:
		return true
	default:
		return false
	}
}
