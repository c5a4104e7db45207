// Command experiments regenerates every table and figure of the paper's
// evaluation (plus the ablation studies) and prints them, optionally
// writing a Markdown report.
//
// Usage:
//
//	experiments -run all -scale default -seed 42 -md EXPERIMENTS.md
//	experiments -run tableV,latency
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"exiot/internal/experiments"
	"exiot/internal/telemetry"
)

func main() {
	var (
		runList = flag.String("run", "all", "comma-separated experiments: tableI,tableII,tableIII,tableIV,tableV,latency,accuracy,validation,models,throughput,banners,campaigns,adaptivity,importance,ablations,scenarios")
		scale   = flag.String("scale", "default", "quick | default")
		seed    = flag.Int64("seed", 42, "simulation seed")
		mdOut   = flag.String("md", "", "also write a Markdown report to this path")
	)
	flag.Parse()
	if err := run(*runList, *scale, *seed, *mdOut); err != nil {
		log.Fatal(err)
	}
}

func run(runList, scaleName string, seed int64, mdOut string) error {
	var sc experiments.Scale
	switch scaleName {
	case "quick":
		sc = experiments.QuickScale(seed)
	case "default":
		sc = experiments.DefaultScale(seed)
	default:
		return fmt.Errorf("unknown scale %q", scaleName)
	}

	want := map[string]bool{}
	for _, name := range strings.Split(runList, ",") {
		want[strings.TrimSpace(name)] = true
	}
	all := want["all"]
	pick := func(name string) bool { return all || want[name] }

	var sections []section
	emit := func(title, body string) {
		fmt.Println(body)
		sections = append(sections, section{title: title, body: body})
	}

	if pick("tableI") {
		emit("Table I — ports and protocols", experiments.TableI().String())
	}
	if pick("tableII") {
		emit("Table II — extracted fields", experiments.TableII().String())
	}

	needEnv := pick("tableIII") || pick("tableIV") || pick("tableV") ||
		pick("accuracy") || pick("validation") || pick("models") ||
		pick("campaigns") || pick("ablations")
	var env *experiments.Env
	if needEnv {
		start := time.Now()
		fmt.Printf("building environment (scale %s, seed %d, %d infected, %d days)...\n",
			scaleName, seed, sc.Infected, sc.Days)
		var err error
		env, err = experiments.NewEnv(sc)
		if err != nil {
			return err
		}
		fmt.Printf("environment ready in %v: %d records\n\n",
			time.Since(start).Round(time.Second), len(env.Records()))
	}

	if pick("tableIII") {
		emit("Table III — volumetric comparison", experiments.TableIII(env).String())
	}
	if pick("tableIV") {
		emit("Table IV — contribution metrics", experiments.TableIV(env).String())
	}
	if pick("tableV") {
		emit("Table V — infection snapshot", experiments.TableV(env).String())
	}
	if pick("latency") {
		r, err := experiments.Latency(sc)
		if err != nil {
			return err
		}
		emit("Latency experiment", r.String())
	}
	if pick("accuracy") {
		r, err := experiments.Accuracy(env)
		if err != nil {
			emit("Accuracy/coverage", "Accuracy experiment starved: "+err.Error()+"\n")
		} else {
			emit("Accuracy/coverage", r.String())
		}
	}
	if pick("validation") {
		emit("CTI validation", experiments.Validation(env).String())
	}
	if pick("models") {
		r, err := experiments.ModelSelection(env)
		if err != nil {
			emit("Model selection", "Model selection starved: "+err.Error()+"\n")
		} else {
			emit("Model selection", r.String())
		}
	}
	if pick("campaigns") {
		emit("Campaign inference", experiments.Campaigns(env).String())
	}
	if pick("adaptivity") {
		r, err := experiments.Adaptivity(sc)
		if err != nil {
			return err
		}
		emit("Emerging-botnet adaptivity", r.String())
	}
	if pick("importance") {
		emit("Feature importance", experiments.FeatureImportance(sc).String())
	}
	if pick("throughput") {
		emit("Flow-detection throughput", experiments.Throughput(sc).String())
	}
	if pick("banners") {
		emit("Banner availability", experiments.BannerAvailability(sc).String())
	}
	if pick("scenarios") {
		emit("Adversarial scenario suite", experiments.Scenarios(seed).String())
	}
	if pick("ablations") {
		emit("Ablation: TRW", experiments.AblationTRW(sc).String())
		emit("Ablation: sample size", experiments.AblationSampleSize(sc).String())
		emit("Ablation: feature set", experiments.AblationFeatureSet(sc).String())
		emit("Ablation: forest size", experiments.AblationForestSize(sc).String())
		emit("Ablation: training window", experiments.AblationTrainingWindow(env).String())
	}

	if mdOut != "" {
		if err := writeMarkdown(mdOut, scaleName, seed, sections); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", mdOut)
	}
	if summary := telemetry.Default().LayerSummary(); summary != "" {
		fmt.Print(summary)
	}
	return nil
}

type section struct {
	title string
	body  string
}

func writeMarkdown(path, scaleName string, seed int64, sections []section) error {
	var sb strings.Builder
	sb.WriteString("# EXPERIMENTS — paper vs. measured\n\n")
	sb.WriteString("Regenerated by `cmd/experiments` (scale: " + scaleName +
		fmt.Sprintf(", seed: %d). ", seed))
	sb.WriteString("Absolute numbers are scaled-down simulations; the reproduction " +
		"targets are the shapes the paper reports (see DESIGN.md).\n\n")
	for _, s := range sections {
		sb.WriteString("## " + s.title + "\n\n```text\n" + strings.TrimRight(s.body, "\n") + "\n```\n\n")
	}
	sb.WriteString(`## Known gaps vs. the paper

- Table V redundancy: the paper reports ~16 % repeated IPs across its
  3-day snapshot; the simulator's session model yields ~60 %. Matching it
  would require modeling the paper's much larger, churning population
  (hundreds of thousands of devices/day), which is out of laptop scope.
- Coverage (recall) lands above the paper's 77 % — our banner-label noise
  model is milder than whatever drove their coverage gap.
- The ground-truth-labeled ablations (sample size, feature set, forest
  size) saturate near AUC 1.0: they measure learnability ceilings of the
  simulated populations, not deployment noise; the banner-label pipeline
  (Accuracy/coverage above) is the noisy, paper-comparable path.
`)
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}
