package pilot

import (
	"bytes"
	"strings"
	"testing"
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
