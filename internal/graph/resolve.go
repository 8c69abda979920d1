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
	if err := walkResolve(s.Elems, decisions, r.Reached, &r.Ops); err != nil {
		return nil, err
	}
	return r, nil
}

// ReachedSites is Resolve without the operator sequence: it marks in reached
// (len NumSites, cleared first) the sites the decisions reach and fails
// exactly when Resolve would, with the same error. A repeat body is walked
// once when its count is positive: every pass reaches the same sites.
func ReachedSites(s *Static, decisions []int, reached []bool) error {
	if len(decisions) != s.NumSites {
		return fmt.Errorf("graph: got %d decisions, want %d", len(decisions), s.NumSites)
	}
	if len(reached) != s.NumSites {
		return fmt.Errorf("graph: got %d reached slots, want %d", len(reached), s.NumSites)
	}
	clear(reached)
	return walkResolve(s.Elems, decisions, reached, nil)
}

// walkResolve resolves elems under decisions, marking reached sites and
// appending each operator to *ops; a nil ops walks the sites only.
func walkResolve(elems []Elem, decisions []int, reached []bool, ops *[]*Op) error {
	for _, e := range elems {
		switch v := e.(type) {
		case OpElem:
			if ops != nil {
				*ops = append(*ops, v.Op)
			}
		case Branch:
			d := decisions[v.Site]
			if d < 0 || d >= len(v.Arms) {
				return fmt.Errorf("graph: site %d decision %d out of [0,%d)", v.Site, d, len(v.Arms))
			}
			reached[v.Site] = true
			if err := walkResolve(v.Arms[d], decisions, reached, ops); err != nil {
				return err
			}
		case Repeat:
			d := decisions[v.Site]
			count := v.Min + d
			if d < 0 || count > v.Max {
				return fmt.Errorf("graph: site %d repeat decision %d out of range", v.Site, d)
			}
			reached[v.Site] = true
			if ops == nil { // every pass reaches the same sites
				count = min(count, 1)
			}
			for i := 0; i < count; i++ {
				if err := walkResolve(v.Body, decisions, reached, ops); err != nil {
					return err
				}
			}
		}
	}
	return nil
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
