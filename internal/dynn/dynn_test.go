package dynn

import (
	"testing"
	"testing/quick"

	"dynnoffload/internal/graph"
)

func TestGenerateSamplesDeterministic(t *testing.T) {
	a := GenerateSamples(7, 50, 8, 32)
	b := GenerateSamples(7, 50, 8, 32)
	if len(a) != 50 {
		t.Fatalf("got %d samples", len(a))
	}
	for i := range a {
		if len(a[i].Tokens) != len(b[i].Tokens) {
			t.Fatal("same seed produced different samples")
		}
		for j := range a[i].Tokens {
			if a[i].Tokens[j] != b[i].Tokens[j] {
				t.Fatal("token mismatch")
			}
		}
	}
	c := GenerateSamples(8, 50, 8, 32)
	diff := false
	for i := range a {
		if len(a[i].Tokens) != len(c[i].Tokens) {
			diff = true
			break
		}
	}
	if !diff {
		// Very unlikely all lengths coincide; check contents.
		for i := range a {
			for j := range a[i].Tokens {
				if j < len(c[i].Tokens) && a[i].Tokens[j] != c[i].Tokens[j] {
					diff = true
				}
			}
		}
	}
	if !diff {
		t.Error("different seeds produced identical corpora")
	}
}

func TestSampleLengthBounds(t *testing.T) {
	f := func(seed uint64) bool {
		for _, s := range GenerateSamples(seed, 20, 5, 9) {
			if len(s.Tokens) < 5 || len(s.Tokens) > 9 {
				return false
			}
			if len(s.Embed) != EmbedDim {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestEmbedTokens(t *testing.T) {
	e := EmbedTokens(nil)
	if len(e) != EmbedDim {
		t.Fatal("wrong embed width")
	}
	for _, v := range e {
		if v != 0 {
			t.Error("empty sequence must embed to zero")
		}
	}
	e1 := EmbedTokens([]int{1, 2, 3})
	e2 := EmbedTokens([]int{1, 2, 3})
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Error("embedding not deterministic")
		}
	}
}

func TestDeciderDeterministicAndDiverse(t *testing.T) {
	d := NewDecider(3, 6)
	ranges := []int{2, 2, 2, 4, 3, 2}
	samples := GenerateSamples(11, 200, 8, 48)
	first := d.Decide(samples[0].Embed, ranges)
	again := d.Decide(samples[0].Embed, ranges)
	for i := range first {
		if first[i] != again[i] {
			t.Fatal("decisions not deterministic")
		}
		if first[i] < 0 || first[i] >= ranges[i] {
			t.Fatalf("decision %d out of range", i)
		}
	}
	// Across many samples every site should see >1 distinct value.
	for site := range ranges {
		seen := map[int]bool{}
		for _, s := range samples {
			seen[d.Decide(s.Embed, ranges)[site]] = true
		}
		if len(seen) < 2 {
			t.Errorf("site %d is constant across samples — dynamism too weak", site)
		}
	}
}

func TestZooModelsBuildAndResolve(t *testing.T) {
	samples := GenerateSamples(5, 20, 8, 40)
	for _, entry := range Zoo() {
		entry := entry
		t.Run(entry.Name, func(t *testing.T) {
			m := entry.New(2, 9)
			if m.Name() != entry.Name {
				t.Errorf("name %q != %q", m.Name(), entry.Name)
			}
			if err := m.Static().Validate(); err != nil {
				t.Fatalf("static invalid: %v", err)
			}
			if m.Dynamic() != entry.Dynamic {
				t.Errorf("Dynamic() = %v, want %v", m.Dynamic(), entry.Dynamic)
			}
			if ParamCount(m) <= 0 || StateBytes(m) <= 0 {
				t.Error("model must have parameters")
			}
			// StateBytes = 16 bytes/param with Adam (fp32 w + grad + m + v).
			if StateBytes(m) != 16*ParamCount(m) {
				t.Errorf("state bytes %d != 16*params %d", StateBytes(m), 16*ParamCount(m))
			}
			keys := map[string]bool{}
			for _, s := range samples {
				r, err := m.Resolve(s)
				if err != nil {
					t.Fatalf("resolve: %v", err)
				}
				if len(r.Ops) == 0 {
					t.Fatal("empty resolution")
				}
				keys[pathKeyForTest(r)] = true
			}
			if entry.Dynamic && len(keys) < 2 {
				t.Errorf("only %d distinct paths over 20 samples", len(keys))
			}
			if !entry.Dynamic && len(keys) != 1 {
				t.Errorf("static model resolved to %d paths", len(keys))
			}
		})
	}
}

func pathKeyForTest(r *graph.Resolved) string {
	key := make([]byte, 0, len(r.Decisions)*2)
	for site, d := range r.Decisions {
		if !r.Reached[site] {
			key = append(key, '-')
		} else {
			key = append(key, byte('0'+d))
		}
		key = append(key, ',')
	}
	return string(key)
}

func TestZooPathEnumerationBounded(t *testing.T) {
	for _, entry := range Zoo() {
		if !entry.Dynamic {
			continue
		}
		m := entry.New(1, 2)
		paths, err := graph.EnumeratePaths(m.Static())
		if err != nil {
			t.Fatalf("%s: %v", entry.Name, err)
		}
		if len(paths) < 2 || len(paths) > 1024 {
			t.Errorf("%s: %d paths (want small, >1)", entry.Name, len(paths))
		}
	}
}

func TestZooPathsHaveDistinctRecords(t *testing.T) {
	// Every resolution path must have a distinct aggregate bookkeeping
	// record — the property the §IV-B output→path mapping relies on.
	for _, entry := range Zoo() {
		if !entry.Dynamic {
			continue
		}
		m := entry.New(1, 2)
		paths, err := graph.EnumeratePaths(m.Static())
		if err != nil {
			t.Fatalf("%s: %v", entry.Name, err)
		}
		seen := map[string]string{}
		for _, p := range paths {
			k := statsKey(p.Stats)
			if prev, dup := seen[k]; dup {
				t.Errorf("%s: paths %v and %v share a bookkeeping record", entry.Name, prev, pathKeyForTest(p.Resolved))
			}
			seen[k] = pathKeyForTest(p.Resolved)
		}
	}
}

func statsKey(s graph.Stats) string {
	b := make([]byte, 0, 64)
	b = appendInt(b, int64(s.OpCount))
	for _, v := range s.Sig {
		b = appendInt(b, int64(v))
	}
	return string(b)
}

func appendInt(b []byte, v int64) []byte {
	for v > 0 {
		b = append(b, byte('0'+v%10))
		v /= 10
	}
	return append(b, '|')
}

func TestZooModel(t *testing.T) {
	m, err := ZooModel("var-BERT", 2, 3)
	if err != nil || m.Name() != "var-BERT" {
		t.Fatalf("ZooModel: %v", err)
	}
	if _, err := ZooModel("nope", 2, 3); err == nil {
		t.Error("unknown model must error")
	}
}

func TestDynamicZoo(t *testing.T) {
	for _, e := range DynamicZoo() {
		if !e.Dynamic {
			t.Errorf("%s in DynamicZoo but static", e.Name)
		}
	}
}

func TestVarBERTBatchScalesActivations(t *testing.T) {
	m1 := NewVarBERT(VarBERTConfig{Layers: 4, Hidden: 64, SeqLen: 16, Batch: 1, Seed: 1})
	m4 := NewVarBERT(VarBERTConfig{Layers: 4, Hidden: 64, SeqLen: 16, Batch: 4, Seed: 1})
	if ParamCount(m1) != ParamCount(m4) {
		t.Error("batch must not change parameter count")
	}
	s := GenerateSamples(1, 1, 8, 16)[0]
	r1, _ := m1.Resolve(s)
	r4, _ := m4.Resolve(s)
	if totalFLOPs(r4) <= totalFLOPs(r1) {
		t.Error("larger batch must increase FLOPs")
	}
}

func TestWeightSharingAcrossArms(t *testing.T) {
	// var-LSTM buckets share cell weights: parameter count must not grow
	// with the number of buckets.
	a := NewVarLSTM(VarLSTMConfig{Hidden: 32, Buckets: []int{4, 8}, Batch: 1, Seed: 1})
	b := NewVarLSTM(VarLSTMConfig{Hidden: 32, Buckets: []int{4, 8, 12, 16}, Batch: 1, Seed: 1})
	if ParamCount(b) != ParamCount(a) {
		t.Errorf("bucket count changed params: %d vs %d", ParamCount(a), ParamCount(b))
	}
}

func TestAlphaFoldRecyclingWeightsShared(t *testing.T) {
	m := NewAlphaFold(AlphaFoldConfig{Blocks: 2, SeqLen: 16, MSADim: 8, PairDim: 8, Batch: 1, Seed: 1})
	s := GenerateSamples(2, 30, 8, 40)
	// Different recycle counts give different op counts but same params.
	lengths := map[int]bool{}
	for _, smp := range s {
		r, err := m.Resolve(smp)
		if err != nil {
			t.Fatal(err)
		}
		lengths[len(r.Ops)] = true
	}
	if len(lengths) < 2 {
		t.Error("recycling count never varied")
	}
}

func TestControlBitsVary(t *testing.T) {
	// Table I's premise: control vectors diverge across samples.
	m := NewTreeLSTM(TreeLSTMConfig{Levels: 6, Hidden: 16, SeqLen: 8, Batch: 1, Seed: 3})
	samples := GenerateSamples(13, 100, 8, 48)
	distinct := map[string]bool{}
	for _, s := range samples {
		r, _ := m.Resolve(s)
		bits := r.ControlBits(m.Static())
		k := ""
		for _, b := range bits {
			if b {
				k += "1"
			} else {
				k += "0"
			}
		}
		distinct[k] = true
	}
	if len(distinct) < 10 {
		t.Errorf("only %d distinct control vectors in 100 samples", len(distinct))
	}
}

func TestWeightReuseShapeMismatchPanics(t *testing.T) {
	b := newBuilder(true)
	b.weight("w", 2, 3)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on shape mismatch")
		}
	}()
	b.weight("w", 3, 2)
}

func TestFixedBERTIsStatic(t *testing.T) {
	m := NewFixedBERT(VarBERTConfig{Layers: 4, Hidden: 64, SeqLen: 8, Batch: 1, Seed: 1})
	if m.Dynamic() {
		t.Error("fixed-BERT must be static")
	}
	if m.Static().NumSites != 0 {
		t.Errorf("fixed-BERT has %d sites", m.Static().NumSites)
	}
	if m.Decide(GenerateSamples(1, 1, 8, 8)[0]) != nil {
		t.Error("static model must have nil decisions")
	}
}

func TestVarBERTSharesPrefixWeightsAcrossArms(t *testing.T) {
	// Early-exit arms reuse the full arm's prefix layers, so a dynamic
	// var-BERT has the same parameter count as its static twin.
	d := NewVarBERT(VarBERTConfig{Layers: 6, Hidden: 64, SeqLen: 8, Batch: 1, Groups: 3, Seed: 1})
	s := NewFixedBERT(VarBERTConfig{Layers: 6, Hidden: 64, SeqLen: 8, Batch: 1, Groups: 3, Seed: 1})
	if ParamCount(d) != ParamCount(s) {
		t.Errorf("params differ: dynamic %d vs static %d", ParamCount(d), ParamCount(s))
	}
}

// totalFLOPs sums operator FLOPs over a resolved sequence.
func totalFLOPs(r *graph.Resolved) int64 {
	var f int64
	for _, op := range r.Ops {
		f += op.FLOPs
	}
	return f
}
