package pipeline

import (
	"testing"
	"time"

	"exiot/internal/allocbudget"
	"exiot/internal/simnet"
	"exiot/internal/trw"
)

// TestIngestAllocBudget bounds the front half's allocations: one
// generated hour of a 510-host world through a fresh Sampler. Each
// ceiling is ⌊1.10 × the allocs/op recorded for this op at that
// GOMAXPROCS⌋; the recorded counts follow the call.
func TestIngestAllocBudget(t *testing.T) {
	cfg := simnet.DefaultConfig(2040)
	cfg.NumInfected = 400
	cfg.NumNonIoT = 60
	cfg.NumMisconfig = 40
	cfg.NumBackscat = 10
	cfg.MaxPacketsPerHostHour = 2000
	w := simnet.NewWorld(cfg)
	hour := w.Start().Add(18 * time.Hour)
	hourEnd := hour.Add(time.Hour)

	allocbudget.Check(t, 2, [2]float64{21406, 21436}, func() { // 19,460 and 19,488
		sampler := NewSampler(trw.Default(), func(SamplerEvent) {})
		sampler.ProcessHour(w.GenerateHour(hour), hourEnd)
		sampler.Flush(hourEnd)
	})
}

// TestBackHalfAllocBudget bounds the back half's allocations: a 6-hour
// captured sampler stream through a fresh BackHalf — probe, classify,
// enrich, store — closed by one final EndHour. Each ceiling is
// ⌊1.10 × the allocs/op recorded for this op at that GOMAXPROCS⌋; the
// recorded counts follow the call.
func TestBackHalfAllocBudget(t *testing.T) {
	cfg := simnet.DefaultConfig(2050)
	cfg.NumInfected = 300
	cfg.NumNonIoT = 50
	cfg.NumMisconfig = 30
	cfg.NumBackscat = 8
	cfg.MaxPacketsPerHostHour = 1200
	w := simnet.NewWorld(cfg)
	type stamped struct {
		e       SamplerEvent
		hourEnd time.Time
	}
	var events []stamped
	var hourEnd time.Time
	sampler := NewSampler(trw.Default(), func(e SamplerEvent) {
		events = append(events, stamped{e, hourEnd})
	})
	for h := 0; h < 6; h++ {
		hour := w.Start().Add(time.Duration(h) * time.Hour)
		hourEnd = hour.Add(time.Hour)
		sampler.ProcessHour(w.GenerateHour(hour), hourEnd)
	}
	sampler.Flush(hourEnd)
	if len(events) == 0 {
		t.Fatal("sampler produced no events")
	}

	allocbudget.Check(t, 5, [2]float64{10477, 10596}, func() { // 9,525 and 9,633
		back, err := NewBackHalf(DefaultLocalConfig(), w, w.Registry(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, se := range events {
			back.Deliver(se.e, se.hourEnd)
		}
		back.EndHour(hourEnd, true)
	})
}
