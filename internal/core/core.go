// Package core assembles a complete eX-IoT deployment: the simulated
// Internet (standing in for the CAIDA telescope's view and the probeable
// Internet), the two pipeline halves, the e-mail notifier, and the
// authenticated REST API. It is the engine behind the public exiot
// package, the example programs, and the experiment harness.
package core

import (
	"fmt"
	"net/http"
	"time"

	"exiot/internal/api"
	"exiot/internal/notify"
	"exiot/internal/pipeline"
	"exiot/internal/simnet"
)

// Config parameterizes a deployment.
type Config struct {
	// World configures the simulated Internet.
	World simnet.Config
	// Pipeline configures both pipeline halves.
	Pipeline pipeline.LocalConfig
	// APIKeys maps token → client name for the REST API.
	APIKeys map[string]string
	// Workers, when non-zero, overrides the worker count for traffic
	// generation (World.Workers) and — via Pipeline.Workers — the feed
	// back half's probe pool and annotate fan-out. 1 = serial; results
	// are identical at any setting.
	Workers int
}

// DefaultConfig returns a laptop-scale deployment seeded with seed.
func DefaultConfig(seed int64) Config {
	return Config{
		World:    simnet.DefaultConfig(seed),
		Pipeline: pipeline.DefaultLocalConfig(),
		APIKeys:  map[string]string{"dev-key": "local-development"},
	}
}

// System is one running eX-IoT deployment.
type System struct {
	cfg      Config
	world    *simnet.World
	pipe     *pipeline.Local
	mailer   *notify.MemoryMailer
	apiSrv   *api.Server
	hoursRun int
}

// NewSystem builds a deployment from cfg.
func NewSystem(cfg Config) *System {
	if cfg.World.NumInfected == 0 && cfg.World.NumNonIoT == 0 {
		cfg.World = simnet.DefaultConfig(cfg.World.Seed)
	}
	if cfg.Workers != 0 {
		cfg.World.Workers = cfg.Workers
		cfg.Pipeline.Workers = cfg.Workers
	}
	s := &System{cfg: cfg}
	s.world = simnet.NewWorld(cfg.World)
	s.mailer = &notify.MemoryMailer{}
	s.pipe = pipeline.NewLocal(cfg.Pipeline, s.world, s.world.Registry(), s.mailer)
	s.apiSrv = api.NewServer(s.pipe.Server(), s.pipe.Server().Notifier())
	for token, client := range cfg.APIKeys {
		s.apiSrv.AddKey(token, client)
	}
	return s
}

// World exposes the simulated Internet (ground truth; evaluation only).
func (s *System) World() *simnet.World { return s.world }

// Pipeline exposes the running pipeline.
func (s *System) Pipeline() *pipeline.Local { return s.pipe }

// Feed exposes the feed-server half (records, counters, stores).
func (s *System) Feed() *pipeline.Server { return s.pipe.Server() }

// Mailer exposes the captured notification mailbox.
func (s *System) Mailer() *notify.MemoryMailer { return s.mailer }

// Handler returns the REST API as an http.Handler, ready for
// httptest.NewServer or http.ListenAndServe.
func (s *System) Handler() http.Handler { return s.apiSrv }

// API exposes the API server (key management).
func (s *System) API() *api.Server { return s.apiSrv }

// RunHours generates and processes the next n simulated hours.
func (s *System) RunHours(n int) error {
	limit := s.cfg.World.Days * 24
	if s.cfg.World.Days == 0 {
		limit = 24
	}
	for i := 0; i < n; i++ {
		if s.hoursRun >= limit {
			return fmt.Errorf("core: simulated span exhausted after %d hours", s.hoursRun)
		}
		hour := s.world.Start().Add(time.Duration(s.hoursRun) * time.Hour)
		s.pipe.ProcessHour(s.world.GenerateHour(hour), hour)
		s.hoursRun++
	}
	return nil
}

// RunAll processes the entire configured span and finishes the run.
func (s *System) RunAll() error {
	days := s.cfg.World.Days
	if days <= 0 {
		days = 1
	}
	if err := s.RunHours(days*24 - s.hoursRun); err != nil {
		return err
	}
	s.Finish()
	return nil
}

// Finish ends all live flows and flushes pending work.
func (s *System) Finish() {
	s.pipe.Finish(s.world.Start().Add(time.Duration(s.hoursRun) * time.Hour))
}

// HoursRun returns the number of processed simulated hours.
func (s *System) HoursRun() int { return s.hoursRun }

// Clock returns the current simulated instant (end of last processed
// hour).
func (s *System) Clock() time.Time {
	return s.world.Start().Add(time.Duration(s.hoursRun) * time.Hour)
}
