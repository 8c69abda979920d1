package pilot

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"dynnoffload/internal/dynn"
	"dynnoffload/internal/nn"
	"dynnoffload/internal/sentinel"
)

// tinySavedPilot returns the saved bytes of a small pilot with zero weights
// and unit scalers: a valid file without the cost of training one, compact
// enough for the fuzzer to mutate and minimize quickly.
func tinySavedPilot(t testing.TB) []byte {
	t.Helper()
	p := New(Config{Neurons: 1, MaxBlocks: 1, Seed: 3, Features: FeatureConfig{Segments: 1}})
	for _, m := range p.mlps {
		for _, l := range m.Layers {
			clear(l.W)
		}
	}
	in, out := p.mlps[0].InputSize(), len(p.mlps[0].Layers[2].B)
	p.featMean, p.featStd = make([]float64, in), make([]float64, in)
	p.labelMean, p.labelStd = make([]float64, out), make([]float64, out)
	for i := range p.featStd {
		p.featStd[i] = 1
	}
	for i := range p.labelStd {
		p.labelStd[i] = 1
	}
	var buf bytes.Buffer
	if err := p.SaveWithMeta(&buf, map[string]string{"origin": "fixture"}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRejectsMalformed pins that malformed files fail with an error
// instead of panicking inside New: negative widths and block counts used to
// reach make() as slice lengths.
func TestLoadRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		`{"config":{"Neurons":-5}}`,
		`{"config":{"MaxBlocks":-1}}`,
		`{"config":{"Features":{"Segments":-3}}}`,
		`{"config":{"Neurons":4611686018427387904}}`,
		`{}`,
	} {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("Load(%s) accepted a malformed file", in)
		}
	}
	if _, err := Load(bytes.NewReader(tinySavedPilot(t))); err != nil {
		t.Fatalf("Load rejected a saved pilot: %v", err)
	}
}

// FuzzLoad: no input makes LoadWithMeta panic, and every accepted file saves
// to bytes that reload and re-save identically.
func FuzzLoad(f *testing.F) {
	f.Add(tinySavedPilot(f))
	for _, seed := range []string{
		"", "{}", "null", `{"config":{"Neurons":-5}}`, `{"config":{"MaxBlocks":-1}}`,
		`{"config":{"Features":{"Segments":-3}}}`, `{"mlps":[{"layers":[{"w":[1],"b":[]}]}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, meta, err := LoadWithMeta(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := p.SaveWithMeta(&first, meta); err != nil {
			t.Fatalf("accepted file does not save: %v", err)
		}
		q, meta2, err := LoadWithMeta(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("saved file does not reload: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := q.SaveWithMeta(&second, meta2); err != nil {
			t.Fatalf("reloaded file does not save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save is not a fixed point of load:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// Save writes the trained pilot to w without metadata.
func (p *Pilot) Save(w io.Writer) error { return p.SaveWithMeta(w, nil) }

// Load reads a pilot saved by Save.
func Load(r io.Reader) (*Pilot, error) {
	p, _, err := LoadWithMeta(r)
	return p, err
}

// Pilot persistence: the pilot (configuration, all three MLPs, and the
// feature/label scalers) serialized as JSON. No command saves or loads a
// pilot, so the format lives with the tests that pin it: the round-trip,
// malformed-file and FuzzLoad tests.

type persistedLayer struct {
	In  int       `json:"in"` // redundant with W size; kept for validation
	Out int       `json:"out"`
	Act int       `json:"act"`
	W   []float64 `json:"w"` // Out×In row-major
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
				In: l.In, Out: l.Out, Act: int(l.Act), W: outByIn(l), B: l.B,
			})
		}
	}
	out.FeatMean, out.FeatStd = p.featMean, p.featStd
	out.LabelMean, out.LabelStd = p.labelMean, p.labelStd
	out.Meta = meta
	return json.NewEncoder(w).Encode(&out)
}

// LoadWithMeta reads a pilot saved by SaveWithMeta, returning the
// metadata map alongside (nil when none was saved).
func LoadWithMeta(r io.Reader) (*Pilot, map[string]string, error) {
	var in persistedPilot
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, nil, fmt.Errorf("pilot: load: %w", err)
	}
	if err := in.validate(); err != nil {
		return nil, nil, fmt.Errorf("pilot: load: %w", err)
	}
	p := New(in.Config)
	for i := range in.MLPs {
		for j, pl := range in.MLPs[i].Layers {
			l := p.mlps[i].Layers[j]
			setOutByIn(l, pl.W)
			copy(l.B, pl.B)
			l.Act = nn.Activation(pl.Act)
		}
	}
	p.featMean, p.featStd = in.FeatMean, in.FeatStd
	p.labelMean, p.labelStd = in.LabelMean, in.LabelStd
	p.normLabels = map[*ModelContext][]float64{}
	return p, in.Meta, nil
}

// validate rejects a file New cannot build from or Save would not write:
// non-positive widths or block counts, MLP shapes that disagree with the
// configuration, unknown activations, and missing or misshapen scalers.
// Shapes are checked against the stored weights before any MLP is built, so
// a malformed configuration can neither panic New nor make it allocate more
// than the file itself holds.
func (in *persistedPilot) validate() error {
	cfg := in.Config
	cfg.defaults()
	width := cfg.Features.Width()
	switch {
	case cfg.Neurons <= 0:
		return fmt.Errorf("%d neurons per layer", cfg.Neurons)
	case cfg.MaxBlocks <= 0:
		return fmt.Errorf("%d max blocks", cfg.MaxBlocks)
	case cfg.Features.Segments <= 0 || width <= 0:
		return fmt.Errorf("%d feature segments", cfg.Features.Segments)
	}
	// New builds layers of widths [width, Neurons, Neurons, MaxBlocks ×
	// DescriptorLen]; every comparison divides, so an overflowing product
	// can never match.
	outWidth := func(n int) bool {
		return n%sentinel.DescriptorLen == 0 && n/sentinel.DescriptorLen == cfg.MaxBlocks
	}
	ins := [3]int{width, cfg.Neurons, cfg.Neurons}
	for i, m := range in.MLPs {
		if len(m.Layers) != len(ins) {
			return fmt.Errorf("MLP %d has %d layers, want %d", i, len(m.Layers), len(ins))
		}
		for j, l := range m.Layers {
			out := len(l.B)
			outOK := out == cfg.Neurons
			if j == len(ins)-1 {
				outOK = outWidth(out)
			}
			if !outOK || len(l.W)%out != 0 || len(l.W)/out != ins[j] {
				return fmt.Errorf("MLP %d layer %d shape mismatch", i, j)
			}
			if l.Act < int(nn.LeakyReLU) || l.Act > int(nn.Identity) {
				return fmt.Errorf("MLP %d layer %d: unknown activation %d", i, j, l.Act)
			}
		}
	}
	if len(in.FeatMean) != width || len(in.FeatStd) != width {
		return fmt.Errorf("feature scalers have widths %d/%d, want %d", len(in.FeatMean), len(in.FeatStd), width)
	}
	if !outWidth(len(in.LabelMean)) || len(in.LabelStd) != len(in.LabelMean) {
		return fmt.Errorf("label scalers have widths %d/%d, want %d blocks", len(in.LabelMean), len(in.LabelStd), cfg.MaxBlocks)
	}
	return nil
}

// outByIn copies a layer's In×Out weights into the Out×In row-major order
// the file stores.
func outByIn(l *nn.Layer) []float64 {
	w := make([]float64, len(l.W))
	for c := 0; c < l.In; c++ {
		for r := 0; r < l.Out; r++ {
			w[r*l.In+c] = l.W[c*l.Out+r]
		}
	}
	return w
}

// setOutByIn sets a layer's weights from w, which is Out×In row-major.
func setOutByIn(l *nn.Layer, w []float64) {
	for r := 0; r < l.Out; r++ {
		for c := 0; c < l.In; c++ {
			l.W[c*l.Out+r] = w[r*l.In+c]
		}
	}
}
