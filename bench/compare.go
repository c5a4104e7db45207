package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareMain implements `bench compare a.jsonl b.jsonl`: a is the parent's
// set of runs, b the change's. It applies each end-to-end metric's bound
// to the medians, workload by workload, and exits 1 when b is worse than
// a by more than a bound. A metric whose run-to-run spread on either side
// exceeds its bound is unresolved, not unchanged, unless every run of b
// reads better than every run of a.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare a.jsonl b.jsonl")
		return 2
	}
	verdicts, err := compareFiles(args[0], args[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	return printVerdicts(stdout, verdicts)
}

func compareFiles(pathA, pathB string) ([]verdict, error) {
	a, err := readResults(pathA)
	if err != nil {
		return nil, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return nil, err
	}
	return compareSets(a, b)
}

func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace { // bounds are on the untraced, end-to-end metrics
			out = append(out, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no untraced result", path)
	}
	return out, nil
}

// verdict is the outcome for one metric on one workload.
type verdict struct {
	Workload, Metric string
	A, B             float64 // medians
	SpreadA, SpreadB float64 // interquartile distance over the median
	Worse            float64 // by how much B is worse than A, as a share of A
	Bound            float64
	Outcome          string // ok | regressed | unresolved
}

// compareSets refuses sets measured on different processor counts: a
// workload sized for two processors says nothing about eight.
func compareSets(a, b []result) ([]verdict, error) {
	for _, r := range append(append([]result(nil), a...), b...) {
		if r.Env.NProc != a[0].Env.NProc || r.Env.GOMAXPROCS != a[0].Env.GOMAXPROCS {
			return nil, fmt.Errorf("results from nproc %d / GOMAXPROCS %d and nproc %d / GOMAXPROCS %d cannot be compared",
				a[0].Env.NProc, a[0].Env.GOMAXPROCS, r.Env.NProc, r.Env.GOMAXPROCS)
		}
	}
	group := func(rs []result) map[string]map[string][]float64 {
		out := make(map[string]map[string][]float64)
		for _, r := range rs {
			if out[r.Workload] == nil {
				out[r.Workload] = make(map[string][]float64)
			}
			for name, v := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], v.Value)
			}
		}
		return out
	}
	ga, gb := group(a), group(b)
	var verdicts []verdict
	for _, w := range workloadSpecs {
		for _, s := range endToEndSpecs {
			va, vb := ga[w.Name][s.Name], gb[w.Name][s.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdicts = append(verdicts, judge(w.Name, s, va, vb))
		}
	}
	if len(verdicts) == 0 {
		return nil, fmt.Errorf("the two sets share no workload")
	}
	return verdicts, nil
}

func judge(workload string, s metricSpec, va, vb []float64) verdict {
	v := verdict{Workload: workload, Metric: s.Name, A: median(va), B: median(vb), Bound: s.Bound, Outcome: "ok"}
	v.Worse = (v.B - v.A) / v.A
	if s.Better == "higher" {
		v.Worse = -v.Worse
	}
	if len(va) >= 2 && len(vb) >= 2 {
		v.SpreadA, v.SpreadB = spread(va), spread(vb)
	}
	// setup_s is exempt from the spread rule, as it is in the driver.
	noisy := s.Name != "setup_s" && (v.SpreadA > s.Bound || v.SpreadB > s.Bound)
	switch {
	case noisy && !allBetter(s.Better, va, vb):
		v.Outcome = "unresolved"
	case v.Worse > s.Bound:
		v.Outcome = "regressed"
	}
	return v
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(better string, va, vb []float64) bool {
	sa := append([]float64(nil), va...)
	sb := append([]float64(nil), vb...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

func printVerdicts(w io.Writer, verdicts []verdict) int {
	code := 0
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "a median", "b median", "worse", "spread a", "spread b", "bound", "outcome")
	for _, v := range verdicts {
		fmt.Fprintf(w, "%-16s %-20s %14.4f %14.4f %+7.1f%% %7.1f%% %7.1f%% %6.0f%%  %s\n",
			v.Workload, v.Metric, v.A, v.B, 100*v.Worse, 100*v.SpreadA, 100*v.SpreadB, 100*v.Bound, v.Outcome)
		if v.Outcome != "ok" {
			code = 1
		}
	}
	return code
}
