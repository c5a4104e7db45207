package main

import (
	"testing"
	"time"
)

// The workloads at a fraction of their size: every one sets up, measures
// and traces, passes its own checks, and emits exactly the metrics the
// spec names. The numbers mean nothing at this size.

var tinyIngest = ingestSizes{
	infected: 40, nonIoT: 8, misconfig: 6, backscatter: 3,
	capPerHostHour: 300,
	days:           1, firstHour: 4, hours: 3,
}

func smoke(t *testing.T, inst instance, d time.Duration) {
	t.Helper()
	defer inst.close()
	known := map[string]bool{}
	for _, m := range perLayerSpecs {
		known[m.Name] = true
	}

	obs, err := inst.measure(d)
	if err != nil {
		t.Fatal(err)
	}
	if obs.failed != 0 || obs.attempted == 0 {
		t.Errorf("measure: %d of %d checks failed: %v", obs.failed, obs.attempted, obs.notes)
	}
	for name, v := range obs.endToEnd(0.1) {
		if !(v > 0) {
			t.Errorf("end-to-end metric %s = %v, want a positive number", name, v)
		}
	}
	if got, want := len(obs.endToEnd(0.1)), len(endToEndSpecs); got != want {
		t.Errorf("%d end-to-end metrics, the spec names %d", got, want)
	}

	layers, obs, spans, err := inst.traced(d)
	if err != nil {
		t.Fatal(err)
	}
	if obs.failed != 0 || obs.attempted == 0 {
		t.Errorf("traced: %d of %d checks failed: %v", obs.failed, obs.attempted, obs.notes)
	}
	if len(spans) == 0 {
		t.Error("the traced run recorded no span")
	}
	for name := range layers {
		if !known[name] {
			t.Errorf("traced run reports %s, which the spec does not name", name)
		}
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
}

func TestSmokeIngestFromMemory(t *testing.T) {
	inst, err := setupIngest(tinyIngest, 7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	smoke(t, inst, time.Millisecond)
}

func TestSmokeIngestFromDisk(t *testing.T) {
	z := tinyIngest
	z.fromDisk = true
	inst, err := setupIngest(z, 7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	smoke(t, inst, time.Millisecond)
}

func TestSmokeDurableRestart(t *testing.T) {
	inst, err := setupDurable(tinyIngest, 7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	smoke(t, inst, time.Millisecond)
}

func TestSmokeConsumerPoll(t *testing.T) {
	// An instance serves one run: measure and traced each get their own.
	known := map[string]bool{}
	for _, m := range perLayerSpecs {
		known[m.Name] = true
	}
	p := setupPoll(7, 500)
	obs, err := p.measure(300 * time.Millisecond)
	p.close()
	if err != nil {
		t.Fatal(err)
	}
	if obs.failed != 0 || obs.attempted == 0 {
		t.Errorf("measure: %d of %d checks failed: %v", obs.failed, obs.attempted, obs.notes)
	}
	for name, v := range obs.endToEnd(0.1) {
		if !(v > 0) {
			t.Errorf("end-to-end metric %s = %v, want a positive number", name, v)
		}
	}

	p = setupPoll(7, 500)
	defer p.close()
	layers, obs, spans, err := p.traced(500 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if obs.failed != 0 || obs.attempted == 0 {
		t.Errorf("traced: %d of %d checks failed: %v", obs.failed, obs.attempted, obs.notes)
	}
	if len(spans) == 0 {
		t.Error("the traced run recorded no span")
	}
	for name := range layers {
		if !known[name] {
			t.Errorf("traced run reports %s, which the spec does not name", name)
		}
	}
}
