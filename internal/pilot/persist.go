package pilot

import (
	"encoding/json"
	"fmt"
	"io"

	"dynnoffload/internal/dynn"
	"dynnoffload/internal/nn"
)

// The pilot model trains offline (§IV-D) and is then deployed into the
// runtime, so it must round-trip through storage. This file serializes the
// pilot (configuration, all three MLPs, and the feature/label scalers) as
// JSON.

type persistedLayer struct {
	In  int       `json:"in"` // redundant with W size; kept for validation
	Out int       `json:"out"`
	Act int       `json:"act"`
	W   []float64 `json:"w"`
	B   []float64 `json:"b"`
}

type persistedMLP struct {
	Layers []persistedLayer `json:"layers"`
}

type persistedPilot struct {
	Config    Config                          `json:"config"`
	MLPs      [dynn.NumBaseTypes]persistedMLP `json:"mlps"`
	FeatMean  []float64                       `json:"feat_mean"`
	FeatStd   []float64                       `json:"feat_std"`
	LabelMean []float64                       `json:"label_mean"`
	LabelStd  []float64                       `json:"label_std"`
	// Meta carries provenance the weights alone cannot express — the online
	// learner files its replay-ring state here (capacity, observed count,
	// retrain count, training interval) so a reloaded pilot knows how it was
	// adapted. encoding/json writes map keys sorted, so the file is
	// deterministic for a given pilot+meta.
	Meta map[string]string `json:"meta,omitempty"`
}

// Save writes the trained pilot to w. It fails on an untrained pilot (no
// scalers to persist).
func (p *Pilot) Save(w io.Writer) error {
	return p.SaveWithMeta(w, nil)
}

// SaveWithMeta writes the trained pilot plus a metadata map (the online
// learner's replay-ring state rides here). Float64 weights round-trip
// exactly: encoding/json emits the shortest representation that parses back
// to the identical bit pattern, so a reloaded pilot predicts bit-identically.
func (p *Pilot) SaveWithMeta(w io.Writer, meta map[string]string) error {
	if !p.Trained() {
		return fmt.Errorf("pilot: Save before Train: %w", ErrNotTrained)
	}
	var out persistedPilot
	out.Config = p.Cfg
	for i, m := range p.mlps {
		for _, l := range m.Layers {
			out.MLPs[i].Layers = append(out.MLPs[i].Layers, persistedLayer{
				In: l.In, Out: l.Out, Act: int(l.Act), W: l.W, B: l.B,
			})
		}
	}
	out.FeatMean, out.FeatStd = p.featMean, p.featStd
	out.LabelMean, out.LabelStd = p.labelMean, p.labelStd
	out.Meta = meta
	return json.NewEncoder(w).Encode(&out)
}

// Load reads a pilot saved by Save.
func Load(r io.Reader) (*Pilot, error) {
	p, _, err := LoadWithMeta(r)
	return p, err
}

// LoadWithMeta reads a pilot saved by Save/SaveWithMeta, returning the
// metadata map alongside (nil when none was saved).
func LoadWithMeta(r io.Reader) (*Pilot, map[string]string, error) {
	var in persistedPilot
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, nil, fmt.Errorf("pilot: load: %w", err)
	}
	p := New(in.Config)
	for i := range in.MLPs {
		if len(in.MLPs[i].Layers) != len(p.mlps[i].Layers) {
			return nil, nil, fmt.Errorf("pilot: load: MLP %d has %d layers, want %d",
				i, len(in.MLPs[i].Layers), len(p.mlps[i].Layers))
		}
		for j, pl := range in.MLPs[i].Layers {
			l := p.mlps[i].Layers[j]
			if len(pl.W) != len(l.W) || len(pl.B) != len(l.B) {
				return nil, nil, fmt.Errorf("pilot: load: MLP %d layer %d shape mismatch", i, j)
			}
			copy(l.W, pl.W)
			copy(l.B, pl.B)
			l.Act = nn.Activation(pl.Act)
		}
	}
	p.featMean, p.featStd = in.FeatMean, in.FeatStd
	p.labelMean, p.labelStd = in.LabelMean, in.LabelStd
	p.normLabels = map[*ModelContext][]float64{}
	return p, in.Meta, nil
}
