package lint

// All returns the full dynnlint analyzer suite in reporting order: the four
// AST-shallow passes, then the dataflow pass. Lock copies are go vet's
// (copylocks), not dynnlint's.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism, Floatcmp, Errdiscipline, Panicfree, Clockunits,
	}
}

// ByName returns the subset of All() named in names (nil names = all).
func ByName(names []string) []*Analyzer {
	if len(names) == 0 {
		return All()
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var out []*Analyzer
	for _, an := range All() {
		if want[an.Name] {
			out = append(out, an)
		}
	}
	return out
}
