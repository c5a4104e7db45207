package trainer

import (
	"encoding/json"
	"fmt"

	"exiot/internal/features"
	"exiot/internal/ml"
)

// This file is the trainer's durability surface: exporting and
// restoring the sliding example window (plus the retrain counter that
// seeds hyper-parameter search) so a recovered feed server retrains
// exactly as the uninterrupted run would have.

// State is the trainer's exportable state.
type State struct {
	// Examples is the sliding window, in arrival order.
	Examples []Example `json:"examples"`
	// Retrains is the lifetime retrain count; it offsets the search seed
	// (cfg.Seed + retrains), so restoring it keeps future models
	// bit-identical with the uninterrupted run.
	Retrains int `json:"retrains"`
}

// ExportState captures the current window and retrain counter.
func (t *Trainer) ExportState() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := State{Retrains: t.retrains}
	st.Examples = make([]Example, len(t.examples))
	copy(st.Examples, t.examples)
	return st
}

// RestoreState replaces the window and retrain counter with an exported
// state.
func (t *Trainer) RestoreState(st State) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.examples = make([]Example, len(st.Examples))
	copy(t.examples, st.Examples)
	t.retrains = st.Retrains
	metWindowSize.Set(float64(len(t.examples)))
}

// Saved converts a trained model into its archival form.
func (m *TrainedModel) Saved(windowDays int) (*ml.SavedModel, error) {
	normRaw, err := json.Marshal(m.Normalizer)
	if err != nil {
		return nil, fmt.Errorf("trainer: encode normalizer: %w", err)
	}
	return &ml.SavedModel{
		TrainedAt:    m.TrainedAt,
		WindowDays:   windowDays,
		TrainSamples: m.TrainSize,
		TestSamples:  m.TestSize,
		AUC:          m.AUC,
		F1:           m.F1,
		Forest:       m.Forest,
		Normalizer:   normRaw,
	}, nil
}

// FromSaved reconstructs a trained model from its archival form.
func FromSaved(saved *ml.SavedModel) (*TrainedModel, error) {
	if saved == nil {
		return nil, nil
	}
	if saved.Forest == nil {
		return nil, fmt.Errorf("trainer: archived model %s lacks a forest", saved.TrainedAt)
	}
	m := &TrainedModel{
		Forest:    saved.Forest,
		TrainedAt: saved.TrainedAt,
		AUC:       saved.AUC,
		F1:        saved.F1,
		TrainSize: saved.TrainSamples,
		TestSize:  saved.TestSamples,
	}
	if len(saved.Normalizer) > 0 {
		var norm features.Normalizer
		if err := json.Unmarshal(saved.Normalizer, &norm); err != nil {
			return nil, fmt.Errorf("trainer: decode normalizer: %w", err)
		}
		m.Normalizer = &norm
	}
	if m.Normalizer == nil {
		return nil, fmt.Errorf("trainer: archived model %s lacks a normalizer", saved.TrainedAt)
	}
	// The archive is bytes this process may not have written: nothing in
	// it may index past the flow vector the model will be applied to.
	if n := m.Normalizer; len(n.Min) != features.Dim || len(n.Max) != features.Dim || len(n.Mean) != features.Dim {
		return nil, fmt.Errorf("trainer: archived model %s: normalizer is %d/%d/%d wide, want %d",
			saved.TrainedAt, len(n.Min), len(n.Max), len(n.Mean), features.Dim)
	}
	if err := m.Forest.Validate(features.Dim); err != nil {
		return nil, fmt.Errorf("trainer: archived model %s: %w", saved.TrainedAt, err)
	}
	return m, nil
}
