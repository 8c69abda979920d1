package graph

import "dynnoffload/internal/idiom"

// AFM is the architecture feature matrix (§IV-A2): one nine-element row per
// operator occurrence in program order, with an all-zero dummy row at each
// control-statement location. Operators inside branch arms appear in program
// order; a repeat body appears once (as in the source text).
type AFM struct {
	Rows [][]float64
}

// BuildAFM constructs the AFM of a static architecture.
func BuildAFM(s *Static) *AFM {
	afm := &AFM{}
	var walk func(elems []Elem)
	appendRow := func(sig idiom.Signature) {
		row := make([]float64, idiom.SigLen)
		copy(row, sig[:])
		afm.Rows = append(afm.Rows, row)
	}
	walk = func(elems []Elem) {
		for _, e := range elems {
			switch v := e.(type) {
			case OpElem:
				appendRow(v.Op.Sig)
			case Branch:
				appendRow(idiom.ControlFlowRow)
				for _, arm := range v.Arms {
					walk(arm)
				}
			case Repeat:
				appendRow(idiom.ControlFlowRow)
				walk(v.Body)
			}
		}
	}
	walk(s.Elems)
	return afm
}

// PooledFeatures compresses the AFM into a fixed-length feature vector for
// the pilot model: the rows are split into `segments` contiguous groups and
// each group's rows are summed, yielding segments×SigLen features. This keeps
// the pilot input width constant across architectures of different sizes
// while preserving the coarse idiom layout of the network (§IV-A goals: few,
// informative features).
func (a *AFM) PooledFeatures(segments int) []float64 {
	out := make([]float64, segments*idiom.SigLen)
	n := len(a.Rows)
	if n == 0 {
		return out
	}
	for i, row := range a.Rows {
		seg := i * segments / n
		base := seg * idiom.SigLen
		for j, v := range row {
			out[base+j] += v
		}
	}
	return out
}

// GlobalIDFeatures is the Fig 11 baseline representation: instead of idiom
// signatures, each row contributes a one-hot of the operator's global ID
// pooled into segments (control rows contribute nothing). The feature width
// is segments×vocab, which grows with the operator vocabulary — the paper's
// point: this representation needs far more model capacity for the same
// accuracy.
type GlobalIDAFM struct {
	IDs   []int // -1 marks control rows
	names []string
}

// BuildGlobalIDAFM records each operator occurrence's global registry ID in
// program order, mirroring BuildAFM's row layout.
func BuildGlobalIDAFM(s *Static) *GlobalIDAFM {
	g := &GlobalIDAFM{}
	var walk func(elems []Elem)
	walk = func(elems []Elem) {
		for _, e := range elems {
			switch v := e.(type) {
			case OpElem:
				id, ok := idiom.Default.GlobalID(v.Op.Name)
				if !ok {
					id = -1
				}
				g.IDs = append(g.IDs, id)
				g.names = append(g.names, v.Op.Name)
			case Branch:
				g.IDs = append(g.IDs, -1)
				g.names = append(g.names, "")
				for _, arm := range v.Arms {
					walk(arm)
				}
			case Repeat:
				g.IDs = append(g.IDs, -1)
				g.names = append(g.names, "")
				walk(v.Body)
			}
		}
	}
	walk(s.Elems)
	return g
}

// PooledFeatures pools one-hot rows into segments×vocab features.
func (g *GlobalIDAFM) PooledFeatures(segments, vocab int) []float64 {
	out := make([]float64, segments*vocab)
	n := len(g.IDs)
	if n == 0 {
		return out
	}
	for i, id := range g.IDs {
		if id < 0 || id >= vocab {
			continue
		}
		seg := i * segments / n
		out[seg*vocab+id]++
	}
	return out
}
