package model

import (
	"bytes"
	"encoding/gob"
	"fmt"
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
	for _, p := range m.BaseParams() {
		src, ok := s.Mats[p.Name]
		if !ok {
			return fmt.Errorf("model: snapshot missing %q", p.Name)
		}
		if len(src) != len(p.W.Data) {
			return fmt.Errorf("model: snapshot %q has %d values, want %d", p.Name, len(src), len(p.W.Data))
		}
		copy(p.W.Data, src)
	}
	m.Trust.Val = s.Trust
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

// DecodeSnapshot deserializes a snapshot.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&s); err != nil {
		return nil, fmt.Errorf("model: decode snapshot: %w", err)
	}
	return &s, nil
}
