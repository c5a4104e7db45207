package experiments

import (
	"encoding/json"
	"fmt"
	"strings"

	"exiot/internal/scenario"
)

// ScenarioReport is the adversarial scenario suite scored end to end:
// every scenario in scenario.Suite() run at its canonical span through
// the full TRW→probe→classify pipeline, with per-scenario detection
// accuracy against ground truth.
type ScenarioReport struct {
	Seed    int64
	Results []scenario.Result
	specs   []scenario.Scenario
}

// Scenarios runs the adversarial scenario suite. Accuracy metrics are
// deterministic in (seed, scenario); only the timing fields vary run to
// run.
func Scenarios(seed int64) ScenarioReport {
	rep := ScenarioReport{Seed: seed, specs: scenario.Suite()}
	for _, sc := range rep.specs {
		rep.Results = append(rep.Results, scenario.Run(sc, seed, 0))
	}
	return rep
}

// String renders the per-scenario accuracy table plus each scenario's
// designed blind spot.
func (r ScenarioReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Adversarial scenario suite (seed %d)\n", r.Seed)
	fmt.Fprintf(&sb, "%-22s %5s %9s %7s %6s %6s %6s %6s %6s %6s\n",
		"scenario", "hours", "packets", "records",
		"scanP", "scanR", "injR", "injFP", "iotP", "iotR")
	for _, res := range r.Results {
		fmt.Fprintf(&sb, "%-22s %5d %9d %7d %6.3f %6.3f %6.3f %6d %6.3f %6.3f\n",
			res.Name, res.Hours, res.Packets, res.Records,
			res.ScanPrecision, res.ScanRecall,
			res.InjectedRecall, res.InjectedFalseFed,
			res.IoTPrecision, res.IoTRecall)
	}
	sb.WriteString("\nblind spots under test:\n")
	for _, sc := range r.specs {
		fmt.Fprintf(&sb, "  %-22s %s\n", sc.Name, sc.BlindSpot)
	}
	return sb.String()
}

// BaselineJSON renders the report in benchjson's Baseline schema so CI
// compares accuracy the same way it compares throughput: ns_per_op is
// per-packet pipeline cost, and every accuracy metric rides along in
// metrics (exact-valued — compare them with `benchjson compare
// -metrics`).
func (r ScenarioReport) BaselineJSON() ([]byte, error) {
	type stat struct {
		NsPerOp float64            `json:"ns_per_op"`
		Metrics map[string]float64 `json:"metrics,omitempty"`
	}
	benchmarks := make(map[string]stat, len(r.Results))
	for _, res := range r.Results {
		nsPerPkt := 0.0
		if res.Packets > 0 {
			nsPerPkt = float64(res.ElapsedNs) / float64(res.Packets)
		}
		benchmarks["Scenario/"+res.Name] = stat{
			NsPerOp: nsPerPkt,
			Metrics: map[string]float64{
				"packets":            float64(res.Packets),
				"records":            float64(res.Records),
				"scan_precision":     res.ScanPrecision,
				"scan_recall":        res.ScanRecall,
				"injected_recall":    res.InjectedRecall,
				"injected_false_fed": float64(res.InjectedFalseFed),
				"iot_precision":      res.IoTPrecision,
				"iot_recall":         res.IoTRecall,
			},
		}
	}
	out := struct {
		Bench      string          `json:"bench"`
		Package    string          `json:"package"`
		Count      int             `json:"count"`
		Benchmarks map[string]stat `json:"benchmarks"`
	}{
		Bench:      fmt.Sprintf("scenario-suite seed=%d", r.Seed),
		Package:    "internal/scenario",
		Count:      1,
		Benchmarks: benchmarks,
	}
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
