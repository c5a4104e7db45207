// Package experiments regenerates every table and figure of the paper's
// evaluation (§V) plus the ablation studies DESIGN.md calls out. Each
// experiment is a pure function over a shared Env — one simulated
// deployment run — so cmd/experiments and the benchmark harness reuse the
// same code and print the same rows the paper reports.
//
// Absolute numbers are scaled (the substrate is a simulator, not CAIDA's
// /8 testbed); the shapes — who wins, by what factor, where crossovers
// fall — are the reproduction targets.
package experiments

import (
	"time"

	"exiot/internal/core"
	"exiot/internal/feed"
	"exiot/internal/pipeline"
	"exiot/internal/scanmod"
	"exiot/internal/simnet"
	"exiot/internal/thirdparty"
	"exiot/internal/trainer"
)

// Scale sets the size of the simulated deployment. The paper's deployment
// corresponds to roughly 100× the default scale.
type Scale struct {
	Seed      int64
	Infected  int
	NonIoT    int
	Research  int
	Misconfig int
	Backscat  int
	Days      int
	// MaxPacketsPerHostHour bounds memory; see simnet.Config.
	MaxPacketsPerHostHour int
	// SearchIterations bounds the trainer's hyper-parameter search.
	SearchIterations int
}

// DefaultScale returns a laptop-scale run (~1/100 of the paper's volume).
func DefaultScale(seed int64) Scale {
	return Scale{
		Seed:                  seed,
		Infected:              1200,
		NonIoT:                200,
		Research:              8,
		Misconfig:             120,
		Backscat:              30,
		Days:                  3,
		MaxPacketsPerHostHour: 1500,
		SearchIterations:      4,
	}
}

// QuickScale returns a fast sanity-check run for tests and benchmarks.
func QuickScale(seed int64) Scale {
	return Scale{
		Seed:                  seed,
		Infected:              250,
		NonIoT:                50,
		Research:              4,
		Misconfig:             30,
		Backscat:              8,
		Days:                  1,
		MaxPacketsPerHostHour: 1000,
		SearchIterations:      2,
	}
}

func (s Scale) worldConfig() simnet.Config {
	cfg := simnet.DefaultConfig(s.Seed)
	cfg.NumInfected = s.Infected
	cfg.NumNonIoT = s.NonIoT
	cfg.NumResearch = s.Research
	cfg.NumMisconfig = s.Misconfig
	cfg.NumBackscat = s.Backscat
	cfg.Days = s.Days
	cfg.MaxPacketsPerHostHour = s.MaxPacketsPerHostHour
	return cfg
}

func (s Scale) systemConfig() core.Config {
	cfg := core.DefaultConfig(s.Seed)
	cfg.World = s.worldConfig()
	cfg.Pipeline = pipeline.DefaultLocalConfig()
	cfg.Pipeline.Server.ScanMod = scanmod.Config{BatchSize: 200, BatchWait: 45 * time.Minute}
	cfg.Pipeline.Server.Trainer = trainer.Config{
		WindowDays:       14,
		TrainFrac:        0.2,
		SearchIterations: s.SearchIterations,
		Seed:             s.Seed,
	}
	return cfg
}

// Env is one simulated deployment run shared by the experiments.
type Env struct {
	Scale Scale
	Sys   *core.System
	From  time.Time
	To    time.Time

	GreyNoise  *thirdparty.Feed
	DShield    *thirdparty.Feed
	BadPackets *thirdparty.Feed
	NERD       *thirdparty.Feed
}

// NewEnv builds the world, runs the full pipeline over the configured
// span, and materializes the third-party observers over the same period.
func NewEnv(scale Scale) (*Env, error) {
	sys := core.NewSystem(scale.systemConfig())
	if err := sys.RunAll(); err != nil {
		return nil, err
	}
	w := sys.World()
	from := w.Start()
	to := from.Add(time.Duration(scale.Days) * 24 * time.Hour)
	return &Env{
		Scale:      scale,
		Sys:        sys,
		From:       from,
		To:         to,
		GreyNoise:  thirdparty.BuildGreyNoise(w, from, to, scale.Seed),
		DShield:    thirdparty.BuildDShield(w, from, to, scale.Seed),
		BadPackets: thirdparty.BuildBadPackets(w, from, to, scale.Seed),
		NERD:       thirdparty.BuildNERD(w, from, to, scale.Seed),
	}, nil
}

// Records returns every feed record of the run.
func (e *Env) Records() []feed.Record {
	return e.Sys.Feed().Historical().Find(nil)
}

// IoTIndicators returns the set of non-benign IoT-labeled source
// addresses.
func (e *Env) IoTIndicators() feed.IndicatorSet {
	s := make(feed.IndicatorSet)
	for _, rec := range e.Records() {
		if rec.IsIoT() && !rec.Benign {
			s.Add(rec.IP)
		}
	}
	return s
}
