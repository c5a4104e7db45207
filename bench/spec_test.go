package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json, the driver's view of this
// benchmark.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// BENCHMARK.json, README.md and the code name the same workloads and
// metrics: a name added to or dropped from one of them fails here.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if want := []string{"go", "run", "./bench"}; !reflect.DeepEqual(bf.Command, want) {
		t.Errorf("command = %v, want %v", bf.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(bf.Paths, want) {
		t.Errorf("paths = %v, want %v", bf.Paths, want)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	if len(bf.Workloads) != len(workloadSpecs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bf.Workloads), len(workloadSpecs))
	}
	for i, w := range workloadSpecs {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.Name, w.Why)
		}
		if w.setup == nil {
			t.Errorf("workload %s has no setup", w.Name)
		}
	}
	sameMetrics(t, "end_to_end", bf.EndToEnd, endToEndSpecs)
	sameMetrics(t, "per_layer", bf.PerLayer, perLayerSpecs)
}

func sameMetrics(t *testing.T, list string, file, code []metricSpec) {
	t.Helper()
	for i := 0; i < len(file) || i < len(code); i++ {
		switch {
		case i >= len(file):
			t.Errorf("%s: the code has %+v, BENCHMARK.json ends before it", list, code[i])
		case i >= len(code):
			t.Errorf("%s: BENCHMARK.json has %+v, the code ends before it", list, file[i])
		case file[i] != code[i]:
			t.Errorf("%s[%d]: BENCHMARK.json has %+v, the code %+v", list, i, file[i], code[i])
		}
	}
}

// The driver refuses a file outside these limits before a single run.
func TestSpecWithinContractLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadSpecs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloadSpecs {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(endToEndSpecs); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayerSpecs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, m := range endToEndSpecs {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range append(append([]metricSpec(nil), endToEndSpecs...), perLayerSpecs...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayerSpecs {
		use(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
}

// README.md documents every workload and metric, and its tables name
// nothing the code does not have.
func TestReadmeMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	known := map[string]bool{}
	for _, w := range workloadSpecs {
		known[w.Name] = true
		if !strings.Contains(doc, w.Why) {
			t.Errorf("README.md does not give workload %s its why-sentence", w.Name)
		}
	}
	for _, m := range append(append([]metricSpec(nil), endToEndSpecs...), perLayerSpecs...) {
		known[m.Name] = true
	}
	for n := range known {
		if !strings.Contains(doc, "`"+n+"`") {
			t.Errorf("README.md does not mention `%s`", n)
		}
	}
	// Every table row that starts with a name in backticks names a
	// workload or a metric, or with a trailing * a family of metrics.
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)`").FindAllStringSubmatch(doc, -1) {
		name, family := strings.CutSuffix(m[1], "*")
		ok := known[name]
		for n := range known {
			ok = ok || (family && strings.HasPrefix(n, name))
		}
		if !ok {
			t.Errorf("README.md has a table row for `%s`, which is no workload or metric", m[1])
		}
	}
}
