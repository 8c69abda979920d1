package graph

import (
	"fmt"

	"dynnoffload/internal/idiom"
)

// Resolved is the linear forward operator sequence obtained by resolving all
// control flow of a static architecture with a concrete decision vector.
type Resolved struct {
	ModelName string
	Ops       []*Op
	Decisions []int // indexed by site ID; sites never reached keep their value
	Reached   []bool
}

// Resolve linearizes the static architecture under the given decisions
// (indexed by site ID). It returns an error if a decision is out of range for
// a site that is reached.
func Resolve(s *Static, decisions []int) (*Resolved, error) {
	if len(decisions) != s.NumSites {
		return nil, fmt.Errorf("graph: got %d decisions, want %d", len(decisions), s.NumSites)
	}
	r := &Resolved{
		ModelName: s.ModelName,
		Decisions: append([]int(nil), decisions...),
		Reached:   make([]bool, s.NumSites),
	}
	var walk func(elems []Elem) error
	walk = func(elems []Elem) error {
		for _, e := range elems {
			switch v := e.(type) {
			case OpElem:
				r.Ops = append(r.Ops, v.Op)
			case Branch:
				d := decisions[v.Site]
				if d < 0 || d >= len(v.Arms) {
					return fmt.Errorf("graph: site %d decision %d out of [0,%d)", v.Site, d, len(v.Arms))
				}
				r.Reached[v.Site] = true
				if err := walk(v.Arms[d]); err != nil {
					return err
				}
			case Repeat:
				d := decisions[v.Site]
				count := v.Min + d
				if d < 0 || count > v.Max {
					return fmt.Errorf("graph: site %d repeat decision %d out of range", v.Site, d)
				}
				r.Reached[v.Site] = true
				for i := 0; i < count; i++ {
					if err := walk(v.Body); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	if err := walk(s.Elems); err != nil {
		return nil, err
	}
	return r, nil
}

// Stats are the bookkeeping aggregates the paper's output-mapping traverse
// records (§IV-B): operator count, per-idiom totals, and input-dimension
// totals.
type Stats struct {
	OpCount int
	Sig     idiom.Signature // summed signatures (idiom counts + dim sums)
}

// Stats computes the bookkeeping aggregate of the resolved sequence.
func (r *Resolved) Stats() Stats {
	var st Stats
	st.OpCount = len(r.Ops)
	for _, op := range r.Ops {
		st.Sig = st.Sig.Add(op.Sig)
	}
	return st
}

// ControlBits flattens the decision vector into one boolean per control site
// (branch: non-default arm taken; repeat: upper half of the range). Used by
// the Table I Jaccard-distance study.
func (r *Resolved) ControlBits(s *Static) []bool {
	ranges := s.DecisionRange()
	bits := make([]bool, s.NumSites)
	for site, d := range r.Decisions {
		if !r.Reached[site] {
			continue
		}
		bits[site] = d > (ranges[site]-1)/2
	}
	return bits
}
