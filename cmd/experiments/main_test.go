package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteMarkdown(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.md")
	sections := []section{
		{title: "Table III — volumetric comparison", body: "eX-IoT wins\n"},
		{title: "Latency experiment", body: "5h12m\n"},
	}
	if err := writeMarkdown(path, "quick", 42, sections); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	md := string(data)
	for _, want := range []string{
		"# EXPERIMENTS — paper vs. measured",
		"scale: quick, seed: 42",
		"## Table III — volumetric comparison",
		"eX-IoT wins",
		"## Latency experiment",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
}

func TestRunStaticTablesOnly(t *testing.T) {
	// The static tables need no environment and should run instantly.
	if err := run("tableI,tableII", "quick", 1, "", ""); err != nil {
		t.Fatal(err)
	}
	// Unknown scale is rejected.
	if err := run("tableI", "galactic", 1, "", ""); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestRunScenariosWritesBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("full-span scenario suite")
	}
	path := filepath.Join(t.TempDir(), "BENCH_scenarios.json")
	if err := run("scenarios", "quick", 42, "", path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"Scenario/stealth-subthreshold"`,
		`"Scenario/botnet-growth-wave"`,
		`"Scenario/backscatter-storm"`,
		`"Scenario/diurnal-cycle"`,
		`"scan_precision"`,
		`"injected_recall"`,
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("baseline missing %s", want)
		}
	}
}
