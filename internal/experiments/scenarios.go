package experiments

import (
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
