package graph

import "fmt"

// Elem is one element of a static architecture: an operator, a branch
// (conditional control flow), or a repeat (data-dependent iteration count,
// e.g. AlphaFold recycling or tree depth).
type Elem interface{ isElem() }

// OpElem wraps a single operator occurrence.
type OpElem struct{ Op *Op }

// Branch is an unresolved conditional: exactly one arm executes, selected by
// the control decision for Site.
type Branch struct {
	Site int
	Arms [][]Elem
}

// Repeat executes Body a data-dependent number of times in [Min, Max],
// selected by the control decision for Site (decision d runs Min+d times).
type Repeat struct {
	Site     int
	Body     []Elem
	Min, Max int
}

func (OpElem) isElem() {}
func (Branch) isElem() {}
func (Repeat) isElem() {}

// Static is a DyNN's static architecture: the program-order element list plus
// the number of control-flow sites. Site IDs must be dense in [0, NumSites).
type Static struct {
	ModelName string
	Elems     []Elem
	NumSites  int
}

// Validate checks site-ID density and arm/repeat sanity.
func (s *Static) Validate() error {
	seen := make([]bool, s.NumSites)
	var walk func(elems []Elem) error
	walk = func(elems []Elem) error {
		for _, e := range elems {
			switch v := e.(type) {
			case OpElem:
				if v.Op == nil {
					return fmt.Errorf("graph: nil op in %s", s.ModelName)
				}
			case Branch:
				if v.Site < 0 || v.Site >= s.NumSites {
					return fmt.Errorf("graph: branch site %d out of range [0,%d)", v.Site, s.NumSites)
				}
				if seen[v.Site] {
					return fmt.Errorf("graph: duplicate site %d", v.Site)
				}
				seen[v.Site] = true
				if len(v.Arms) < 2 {
					return fmt.Errorf("graph: branch site %d has %d arms, want >= 2", v.Site, len(v.Arms))
				}
				for _, arm := range v.Arms {
					if err := walk(arm); err != nil {
						return err
					}
				}
			case Repeat:
				if v.Site < 0 || v.Site >= s.NumSites {
					return fmt.Errorf("graph: repeat site %d out of range [0,%d)", v.Site, s.NumSites)
				}
				if seen[v.Site] {
					return fmt.Errorf("graph: duplicate site %d", v.Site)
				}
				seen[v.Site] = true
				if v.Min < 0 || v.Max < v.Min {
					return fmt.Errorf("graph: repeat site %d has bad range [%d,%d]", v.Site, v.Min, v.Max)
				}
				if err := walk(v.Body); err != nil {
					return err
				}
			default:
				return fmt.Errorf("graph: unknown elem type %T", e)
			}
		}
		return nil
	}
	if err := walk(s.Elems); err != nil {
		return err
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("graph: site %d never appears", i)
		}
	}
	return nil
}

// DecisionRange returns, for each control site, the number of valid decision
// values (branch: arm count; repeat: Max-Min+1). Indexed by site ID.
func (s *Static) DecisionRange() []int {
	ranges := make([]int, s.NumSites)
	var walk func(elems []Elem)
	walk = func(elems []Elem) {
		for _, e := range elems {
			switch v := e.(type) {
			case Branch:
				ranges[v.Site] = len(v.Arms)
				for _, arm := range v.Arms {
					walk(arm)
				}
			case Repeat:
				ranges[v.Site] = v.Max - v.Min + 1
				walk(v.Body)
			}
		}
	}
	walk(s.Elems)
	return ranges
}
