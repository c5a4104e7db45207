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
	if err := run("tableI,tableII", "quick", 1, ""); err != nil {
		t.Fatal(err)
	}
	// Unknown scale is rejected.
	if err := run("tableI", "galactic", 1, ""); err == nil {
		t.Error("unknown scale accepted")
	}
}

// TestRunScenariosWritesOnlyMarkdown runs the scenario suite from an
// empty working directory: the Markdown report -md names is the only
// file a run leaves behind.
func TestRunScenariosWritesOnlyMarkdown(t *testing.T) {
	if testing.Short() {
		t.Skip("full-span scenario suite")
	}
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	if err := run("scenarios", "quick", 42, "report.md"); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "report.md" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("run left %v in the working directory, want only report.md", names)
	}
	md, err := os.ReadFile(filepath.Join(dir, "report.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"stealth-subthreshold", "botnet-growth-wave", "backscatter-storm", "diurnal-cycle"} {
		if !strings.Contains(string(md), name) {
			t.Errorf("report misses scenario %s", name)
		}
	}
}
