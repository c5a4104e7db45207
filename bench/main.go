// Command bench is the repository benchmark: seeded workloads driven
// from packets in to feed record served, measured from outside the
// pipeline. README.md in this directory says what it measures and why.
//
//	go run ./bench -workload scan-storm -seed 2021 -seconds 10 -trace 0
//	go run ./bench compare a.jsonl b.jsonl
//
// It runs from the root of the checkout and writes only under bench/out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

const outDir = "bench/out"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "the workload to run; all four in turn when empty")
	seed := fs.Int64("seed", DefaultSeed, "the only input to workload generation")
	seconds := fs.Int("seconds", 15, "how long one run measures")
	traceOn := fs.Int("trace", 0, "0: end-to-end metrics with production wiring; 1: per-layer metrics from serial and traced runs")
	results := fs.String("out", filepath.Join(outDir, "results.jsonl"), "file to append the stamped result to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(stderr, "usage: bench [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-out file] | bench compare a.jsonl b.jsonl")
		return 2
	}
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloadSpecs {
			names = append(names, w.Name)
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	// A run that was killed could not remove its capture and state
	// directories; the next one does.
	for _, pattern := range []string{"capture-*", "state-*"} {
		left, _ := filepath.Glob(filepath.Join(outDir, pattern))
		for _, dir := range left {
			os.RemoveAll(dir)
		}
	}
	code := 0
	for _, name := range names {
		spec, ok := findWorkload(name)
		if !ok {
			fmt.Fprintf(stderr, "bench: no workload %q\n", name)
			return 2
		}
		res, err := runWorkload(spec, *seed, time.Duration(*seconds)*time.Second, *traceOn == 1, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		if err := appendResult(*results, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		// The last line of a run is its result, for the driver.
		line, _ := json.Marshal(res.driverLine())
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload, stamped with what produced it: a
// line of bench/out/results.jsonl and the input of `bench compare`.
type result struct {
	Env       envStamp               `json:"env"`
	Workload  string                 `json:"workload"`
	Trace     bool                   `json:"trace"`
	Seconds   float64                `json:"seconds"`
	WallS     float64                `json:"wall_s"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Digest    string                 `json:"digest"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// driverLine is the part of a result the driver's contract names.
func (r *result) driverLine() map[string]any {
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics}
}

func appendResult(path string, r *result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runWorkload sets the workload up setupRepeats times, measures it once,
// prints every metric by name and returns the stamped result.
func runWorkload(spec workloadSpec, seed int64, d time.Duration, withTrace bool, stdout io.Writer) (*result, error) {
	begin := time.Now()
	res := &result{
		Env: stampEnv(seed, outDir), Workload: spec.Name, Trace: withTrace,
		Seconds: d.Seconds(), Metrics: make(map[string]metricValue),
	}
	fmt.Fprintf(stdout, "workload %s  seed %d  trace %v\n  why: %s\n", spec.Name, seed, withTrace, spec.Why)
	if seed == HeldOutSeed {
		fmt.Fprintln(stdout, "  seed", seed, "is held out: not for tuning, only for confirming a result found on other seeds")
	}
	fmt.Fprintf(stdout, "  env: %s/%s  %s  nproc %d  GOMAXPROCS %d  %s  commit %s  temp fs %s  network %s\n",
		res.Env.GOOS, res.Env.GOARCH, res.Env.CPU, res.Env.NProc, res.Env.GOMAXPROCS,
		res.Env.GoVersion, res.Env.Commit, res.Env.TempFS, res.Env.Network)

	var inst instance
	var setupTimes []float64
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			// Dropped before the next setup so that the baselines it
			// takes of the live heap do not count this one.
			if err := inst.close(); err != nil {
				return nil, err
			}
			inst = nil
		}
		start := time.Now()
		var err error
		if inst, err = spec.setup(seed, outDir); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer inst.close()

	var obs *observation
	var values map[string]float64
	specs := endToEndSpecs
	if withTrace {
		specs = perLayerSpecs
		var spans []span
		var err error
		if values, obs, spans, err = inst.traced(d); err != nil {
			return nil, err
		}
		path := filepath.Join(outDir, spec.Name+".trace.json")
		if err := writeTrace(path, traceFile{Env: res.Env, Workload: spec.Name, Spans: spans}); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "  %d spans written to %s\n", len(spans), path)
		printLadder(stdout, spans)
	} else {
		var err error
		if obs, err = inst.measure(d); err != nil {
			return nil, err
		}
		values = obs.endToEnd(median(setupTimes))
		fmt.Fprintf(stdout, "  %d repeats, %.0f %ss; latency over %d samples, %d beyond p90 (want %d), highest supported p%g\n",
			obs.repeats, obs.ops, spec.op, len(obs.latencies), beyond(len(obs.latencies), 0.9), minBeyond,
			100*highestSupported(len(obs.latencies)))
	}

	for _, s := range specs {
		v := values[s.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.Name, v)
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
		fmt.Fprintf(stdout, "  %-34s %16.4f %s\n", s.Name, v, s.Unit)
	}
	for name := range values {
		if _, known := res.Metrics[name]; !known {
			return nil, fmt.Errorf("metric %s is measured but not in the spec", name)
		}
	}
	if share := values["ladder.unexplained_share"]; withTrace && share > 0.20 {
		fmt.Fprintf(stdout, "  FLAG: %.0f%% of the serial wall time is explained by no rung\n", 100*share)
	}

	res.Attempted, res.Failed, res.Digest = obs.attempted, obs.failed, obs.digest
	res.Correct = obs.failed == 0 && obs.attempted > 0
	for _, note := range obs.notes {
		fmt.Fprintln(stdout, "  FAILED:", note)
	}
	res.WallS = time.Since(begin).Seconds()
	fmt.Fprintf(stdout, "  failed_share %d/%d = %g   digest %s\n  wall %.1f s (setup %d x %.2f s)\n",
		obs.failed, obs.attempted, float64(obs.failed)/float64(max(obs.attempted, 1)), obs.digest,
		res.WallS, setupRepeats, median(setupTimes))
	return res, nil
}

// printLadder prints the traced run's spans by name, widest first.
func printLadder(w io.Writer, spans []span) {
	by := sumByName(spans)
	names := make([]string, 0, len(by))
	for name := range by {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]].Self > by[names[j]].Self })
	// Shares are of the root spans' time: the serial run, or on
	// consumer-poll every client's requests laid end to end.
	var root float64
	for i := range spans {
		if spans[i].Parent == 0 {
			root += float64(spans[i].End - spans[i].Start)
		}
	}
	fmt.Fprintf(w, "  %-22s %9s %12s %12s %7s\n", "span", "count", "total ms", "self ms", "self %")
	for _, name := range names {
		lt := by[name]
		fmt.Fprintf(w, "  %-22s %9d %12.2f %12.2f %6.1f%%\n", name, lt.Count,
			float64(lt.Total)/1e6, float64(lt.Self)/1e6, 100*float64(lt.Self)/root)
	}
}
