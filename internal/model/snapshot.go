package model

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
)

// Snapshot is the serializable state of a model's backbone: configuration,
// base matrices, and the trust scalar. Patches are serialized separately by
// internal/lora; a snapshot deliberately excludes them so "upstream model"
// artifacts stay patch-free.
type Snapshot struct {
	Cfg   Config
	Mats  map[string][]float64
	Trust float64
}

// Export captures the backbone state.
func (m *Model) Export() *Snapshot {
	s := &Snapshot{Cfg: m.Cfg, Trust: m.Trust.Val, Mats: map[string][]float64{}}
	for _, p := range m.BaseParams() {
		s.Mats[p.Name] = append([]float64(nil), p.W.Data...)
	}
	return s
}

// LoadSnapshot overwrites the backbone from a snapshot; shapes must match.
func (m *Model) LoadSnapshot(s *Snapshot) error {
	if s.Cfg.Dim != m.Cfg.Dim || s.Cfg.Hidden != m.Cfg.Hidden {
		return fmt.Errorf("model: snapshot shape %d/%d does not match model %d/%d",
			s.Cfg.Dim, s.Cfg.Hidden, m.Cfg.Dim, m.Cfg.Hidden)
	}
	if err := s.checkMats(); err != nil {
		return err
	}
	for _, p := range m.BaseParams() {
		copy(p.W.Data, s.Mats[p.Name])
	}
	m.Trust.Val = s.Trust
	return nil
}

// checkMats reports the first backbone matrix of s's config that s lacks or
// holds with the wrong number of values.
func (s *Snapshot) checkMats() error {
	for _, m := range backboneShapes(s.Cfg) {
		if got := len(s.Mats[m.name]); got != m.n {
			return fmt.Errorf("model: snapshot %q has %d values, want %d", m.name, got, m.n)
		}
	}
	return nil
}

// Clone returns a fresh model with identical backbone weights and no
// patches. The clone shares no scratch with the original, so the two can be
// trained independently (each by its own single owner). The clone inherits
// the recorder: observability follows the model through the pipeline's
// clone-then-fine-tune pattern.
func (m *Model) Clone() *Model {
	c := newModel(m.Cfg, nil)
	src := m.BaseParams()
	for i, p := range c.BaseParams() {
		copy(p.W.Data, src[i].W.Data)
	}
	c.Trust.Val = m.Trust.Val
	c.Rec = m.Rec
	return c
}

// EncodeSnapshot serializes a snapshot with gob.
func (s *Snapshot) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, fmt.Errorf("model: encode snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeSnapshot deserializes a snapshot and refuses one that cannot be a
// backbone: New must be able to build its config (Dim a positive power of
// two, Hidden positive) and every backbone matrix must be there with exactly
// its shape's length. A snapshot it returns therefore builds a model and
// loads into it; a corrupt or hostile one is an error before anything is
// allocated for the model, never a panic.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&s); err != nil {
		return nil, fmt.Errorf("model: decode snapshot: %w", err)
	}
	d, h := s.Cfg.Dim, s.Cfg.Hidden
	if d <= 0 || d&(d-1) != 0 || h <= 0 || d > math.MaxInt/h || h > math.MaxInt/h {
		return nil, fmt.Errorf("model: snapshot shape %d/%d builds no model", d, h)
	}
	if err := s.checkMats(); err != nil {
		return nil, err
	}
	return &s, nil
}
