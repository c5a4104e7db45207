// Command benchjson records and compares benchmark baselines as JSON.
//
// The repo commits machine-readable baselines (BENCH_ingest.json,
// BENCH_backhalf.json) captured with `benchjson run`; CI re-runs the same
// benchmarks and `benchjson compare` flags any ns/op regression beyond a
// threshold, and fails on an allocs/op rise beyond it even under
// -warn-only. Runs with -count > 1 are reduced to the per-benchmark median,
// damping scheduler noise on shared runners. Every capture is stamped
// with the machine that produced it, and compare refuses two stamped
// files captured at different GOMAXPROCS.
//
//	benchjson run -bench 'BenchmarkIngestThroughput$' -pkg . -count 5 -out BENCH_ingest.json
//	benchjson compare -baseline BENCH_ingest.json -current fresh.json -threshold 0.10 -warn-only
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the file format: one entry per benchmark name (GOMAXPROCS
// suffix stripped), medians across repeated runs.
type Baseline struct {
	// Bench is the `go test -bench` regexp the file was captured from.
	Bench string `json:"bench"`
	// Package is the package pattern the benchmarks live in.
	Package string `json:"package"`
	// Count is how many runs each median was taken over.
	Count int `json:"count"`
	// Env is what produced the numbers; nil in files that predate stamps.
	Env        *Env                 `json:"env,omitempty"`
	Benchmarks map[string]BenchStat `json:"benchmarks"`
}

// Env stamps a capture with its machine, so that two files are compared
// only when the comparison means something (field names match bench/'s
// result stamp).
type Env struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// BenchStat is the recorded result of one benchmark.
type BenchStat struct {
	NsPerOp float64 `json:"ns_per_op"`
	// Metrics holds every other reported value by unit: B/op, allocs/op,
	// and custom b.ReportMetric units like pkts/sec.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// sample accumulates repeated measurements for one benchmark.
type sample struct {
	nsPerOp []float64
	metrics map[string][]float64
}

// parseBenchOutput extracts per-benchmark measurements from `go test
// -bench` output. Lines look like:
//
//	BenchmarkIngestThroughput/workers=1-4  2  518ms ns/op  641909 pkts/sec  12 B/op  0 allocs/op
//
// The trailing -N on the name is the GOMAXPROCS the benchmark ran at (go
// test omits it at 1); it is stripped from the name and, with the goos /
// goarch / cpu header lines, returned as the part of the environment
// stamp the output itself vouches for.
func parseBenchOutput(r io.Reader) (map[string]*sample, Env, error) {
	out := make(map[string]*sample)
	var env Env
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if k, v, ok := strings.Cut(line, ": "); ok {
			switch k {
			case "goos":
				env.GOOS = v
			case "goarch":
				env.GOARCH = v
			case "cpu":
				env.CPU = v
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iteration count, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // e.g. "BenchmarkFoo    \t--- FAIL"
		}
		full := strings.TrimPrefix(fields[0], "Benchmark")
		name := stripProcSuffix(full)
		env.GOMAXPROCS = 1
		if name != full {
			env.GOMAXPROCS, _ = strconv.Atoi(full[len(name)+1:])
		}
		s := out[name]
		if s == nil {
			s = &sample{metrics: make(map[string][]float64)}
			out[name] = s
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, env, fmt.Errorf("benchjson: bad value %q in line %q", fields[i], line)
			}
			unit := fields[i+1]
			if unit == "ns/op" {
				s.nsPerOp = append(s.nsPerOp, v)
			} else {
				s.metrics[unit] = append(s.metrics[unit], v)
			}
		}
	}
	return out, env, sc.Err()
}

// stripProcSuffix removes the trailing -N GOMAXPROCS marker, careful not
// to eat sub-benchmark names that legitimately end in -<number>.
// `go test` always appends the suffix, so only the last dash-number goes.
func stripProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// reduce collapses accumulated samples to medians.
func reduce(samples map[string]*sample) map[string]BenchStat {
	out := make(map[string]BenchStat, len(samples))
	for name, s := range samples {
		st := BenchStat{NsPerOp: median(s.nsPerOp)}
		if len(s.metrics) > 0 {
			st.Metrics = make(map[string]float64, len(s.metrics))
			for unit, vs := range s.metrics {
				st.Metrics[unit] = median(vs)
			}
		}
		out[name] = st
	}
	return out
}

// regression describes one benchmark whose ns/op moved past the threshold.
type regression struct {
	Name     string
	Baseline float64
	Current  float64
	Delta    float64 // fractional change, +0.25 = 25% slower
}

// compareBaselines returns regressions (ns/op slower than threshold),
// improvements are reported in the second list for logging, and missing
// names (present in baseline, absent in current) in the third.
func compareBaselines(base, cur map[string]BenchStat, threshold float64) (regs, improves []regression, missing []string) {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		if b.NsPerOp <= 0 {
			continue
		}
		delta := (c.NsPerOp - b.NsPerOp) / b.NsPerOp
		r := regression{Name: name, Baseline: b.NsPerOp, Current: c.NsPerOp, Delta: delta}
		switch {
		case delta > threshold:
			regs = append(regs, r)
		case delta < -threshold:
			improves = append(improves, r)
		}
	}
	return regs, improves, missing
}

// allocRegressions returns the benchmarks whose allocs/op rose past the
// threshold (or off a zero baseline, Delta +Inf). An allocation count
// repeats from run to run and from machine to machine, so unlike ns/op a
// rise is the code's doing and no runner's: compare fails on one even
// under -warn-only.
func allocRegressions(base, cur map[string]BenchStat, threshold float64) []regression {
	const unit = "allocs/op"
	var regs []regression
	for name, b := range base {
		bv, ok := b.Metrics[unit]
		cv, also := cur[name].Metrics[unit]
		if !ok || !also || cv <= bv {
			continue
		}
		r := regression{Name: name, Baseline: bv, Current: cv, Delta: math.Inf(1)}
		if bv > 0 {
			r.Delta = (cv - bv) / bv
		}
		if r.Delta > threshold {
			regs = append(regs, r)
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].Name < regs[j].Name })
	return regs
}

// metricChange is one per-metric value that moved past the threshold in
// either direction. Metrics have no universal "worse" direction
// (pkts/sec up is good, scan_recall down is bad), so any move beyond
// the threshold is flagged for a human to judge.
type metricChange struct {
	Name     string // "<benchmark> [<unit>]"
	Baseline float64
	Current  float64
	Delta    float64 // fractional change; +Inf when baseline is 0
}

// compareMetrics checks every per-metric value of every benchmark the
// two baselines share. A metric present in the baseline but absent from
// the current run is reported in missing.
func compareMetrics(base, cur map[string]BenchStat, threshold float64) (changes []metricChange, missing []string) {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			continue // already reported by the ns/op pass
		}
		units := make([]string, 0, len(b.Metrics))
		for unit := range b.Metrics {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			bv := b.Metrics[unit]
			cv, ok := c.Metrics[unit]
			if !ok {
				missing = append(missing, name+" ["+unit+"]")
				continue
			}
			mc := metricChange{Name: name + " [" + unit + "]", Baseline: bv, Current: cv}
			if bv == 0 {
				if cv != 0 {
					// No ratio exists for a zero baseline; any movement off
					// zero is a change (e.g. injected_false_fed leaving 0).
					mc.Delta = math.Inf(1)
					changes = append(changes, mc)
				}
				continue
			}
			mc.Delta = (cv - bv) / bv
			if mc.Delta > threshold || mc.Delta < -threshold {
				changes = append(changes, mc)
			}
		}
	}
	return changes, missing
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	bench := fs.String("bench", ".", "go test -bench regexp")
	pkg := fs.String("pkg", ".", "package pattern to benchmark")
	count := fs.Int("count", 3, "runs per benchmark (median is recorded)")
	benchtime := fs.String("benchtime", "", "optional -benchtime passthrough (e.g. 1x, 2s)")
	out := fs.String("out", "", "output JSON path (default stdout)")
	fs.Parse(args)

	gargs := []string{"test", "-run", "NONE", "-bench", *bench, "-benchmem",
		"-count", strconv.Itoa(*count)}
	if *benchtime != "" {
		gargs = append(gargs, "-benchtime", *benchtime)
	}
	gargs = append(gargs, *pkg)
	cmd := exec.Command("go", gargs...)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("benchjson: start go test: %w", err)
	}
	tee := io.TeeReader(pipe, os.Stderr) // live progress while capturing
	samples, env, perr := parseBenchOutput(tee)
	if werr := cmd.Wait(); werr != nil {
		return fmt.Errorf("benchjson: go test: %w", werr)
	}
	if perr != nil {
		return perr
	}
	if len(samples) == 0 {
		return fmt.Errorf("benchjson: no benchmark results matched %q in %s", *bench, *pkg)
	}
	env.NProc = runtime.NumCPU()
	env.GoVersion = runtime.Version()
	env.Commit = "unknown"
	if head, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(head))
	}
	b := Baseline{Bench: *bench, Package: *pkg, Count: *count, Env: &env, Benchmarks: reduce(samples)}
	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}

func loadBaseline(path string) (Baseline, error) {
	var b Baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("benchjson: parse %s: %w", path, err)
	}
	return b, nil
}

// checkEnv decides whether two captures may be compared at all. Numbers
// taken at different GOMAXPROCS answer different questions (that is how
// two committed baselines came to show workers=4 losing to workers=1),
// so that is an error no flag waives; a file without a stamp predates
// them and is compared with a notice.
func checkEnv(base, cur *Env) (notice string, err error) {
	if base == nil || cur == nil {
		return "NOTICE: a file predates environment stamps; cannot tell whether the machines match", nil
	}
	if base.GOMAXPROCS != cur.GOMAXPROCS {
		return "", fmt.Errorf("benchjson: baseline captured at GOMAXPROCS %d (%s), current at GOMAXPROCS %d (%s): not comparable",
			base.GOMAXPROCS, base.CPU, cur.GOMAXPROCS, cur.CPU)
	}
	return "", nil
}

func compareCmd(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	basePath := fs.String("baseline", "", "committed baseline JSON")
	curPath := fs.String("current", "", "freshly captured JSON")
	threshold := fs.Float64("threshold", 0.10, "fractional ns/op regression tolerated")
	warnOnly := fs.Bool("warn-only", false, "report ns/op regressions, metric changes and missing benchmarks without failing (shared-runner mode); an allocs/op rise still fails")
	withMetrics := fs.Bool("metrics", false, "also flag per-metric values (B/op, custom units) that move past the threshold in either direction")
	fs.Parse(args)
	if *basePath == "" || *curPath == "" {
		return fmt.Errorf("benchjson compare: -baseline and -current are required")
	}
	base, err := loadBaseline(*basePath)
	if err != nil {
		return err
	}
	cur, err := loadBaseline(*curPath)
	if err != nil {
		return err
	}
	notice, err := checkEnv(base.Env, cur.Env)
	if err != nil {
		return err
	}
	if notice != "" {
		fmt.Println(notice)
	}
	regs, improves, missing := compareBaselines(base.Benchmarks, cur.Benchmarks, *threshold)
	for _, r := range improves {
		fmt.Printf("IMPROVED  %-40s %12.0f -> %12.0f ns/op (%+.1f%%)\n",
			r.Name, r.Baseline, r.Current, 100*r.Delta)
	}
	for _, name := range missing {
		fmt.Printf("MISSING   %-40s present in baseline, absent in current run\n", name)
	}
	for _, r := range regs {
		fmt.Printf("REGRESSED %-40s %12.0f -> %12.0f ns/op (%+.1f%%, threshold %.0f%%)\n",
			r.Name, r.Baseline, r.Current, 100*r.Delta, 100**threshold)
	}
	allocRegs := allocRegressions(base.Benchmarks, cur.Benchmarks, *threshold)
	for _, r := range allocRegs {
		fmt.Printf("REGRESSED %-40s %12.0f -> %12.0f allocs/op (%+.1f%%, threshold %.0f%%, blocking)\n",
			r.Name, r.Baseline, r.Current, 100*r.Delta, 100**threshold)
	}
	var changes []metricChange
	if *withMetrics {
		var missingMetrics []string
		changes, missingMetrics = compareMetrics(base.Benchmarks, cur.Benchmarks, *threshold)
		for _, name := range missingMetrics {
			fmt.Printf("MISSING   %-40s metric present in baseline, absent in current run\n", name)
		}
		missing = append(missing, missingMetrics...)
		for _, c := range changes {
			if math.IsInf(c.Delta, 1) {
				fmt.Printf("CHANGED   %-40s %12g -> %12g (moved off a zero baseline)\n",
					c.Name, c.Baseline, c.Current)
				continue
			}
			fmt.Printf("CHANGED   %-40s %12g -> %12g (%+.1f%%, threshold %.0f%%)\n",
				c.Name, c.Baseline, c.Current, 100*c.Delta, 100**threshold)
		}
	}
	if len(regs) == 0 && len(allocRegs) == 0 && len(missing) == 0 && len(changes) == 0 {
		fmt.Printf("OK: %d benchmarks within %.0f%% of baseline\n", len(base.Benchmarks), 100**threshold)
		return nil
	}
	if *warnOnly && len(allocRegs) == 0 {
		fmt.Printf("WARN: %d regression(s), %d metric change(s), %d missing (warn-only mode, not failing)\n",
			len(regs), len(changes), len(missing))
		return nil
	}
	return fmt.Errorf("benchjson: %d ns/op regression(s), %d allocs/op regression(s), %d metric change(s), %d missing",
		len(regs), len(allocRegs), len(changes), len(missing))
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: benchjson <run|compare> [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = runCmd(os.Args[2:])
	case "compare":
		err = compareCmd(os.Args[2:])
	default:
		err = fmt.Errorf("benchjson: unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
