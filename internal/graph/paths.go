package graph

import "fmt"

// Path is one complete resolution of a static architecture together with its
// bookkeeping aggregate, used to map pilot-model output back to control-flow
// decisions (§IV-B).
type Path struct {
	Decisions []int
	Resolved  *Resolved
	Stats     Stats
}

// MaxEnumeratedPaths bounds path enumeration. The paper notes that "a large
// DyNN does not have many control flows", so enumeration stays cheap; the
// bound is a safety valve for misuse.
const MaxEnumeratedPaths = 1 << 16

// EnumeratePaths lists every distinct resolution of s, trying all decision
// values for each control site actually reached. Unreached sites keep
// decision 0.
func EnumeratePaths(s *Static) ([]Path, error) {
	var paths []Path
	decisions := make([]int, s.NumSites)

	// DFS over elements with explicit continuation stack so nested branches
	// enumerate only along the traversed arm.
	var walk func(stack [][]Elem) error
	walk = func(stack [][]Elem) error {
		// Find the next element: pop empty frames.
		for len(stack) > 0 && len(stack[len(stack)-1]) == 0 {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			if len(paths) >= MaxEnumeratedPaths {
				return fmt.Errorf("graph: more than %d paths in %s", MaxEnumeratedPaths, s.ModelName)
			}
			r, err := Resolve(s, decisions)
			if err != nil {
				return err
			}
			paths = append(paths, Path{
				Decisions: append([]int(nil), decisions...),
				Resolved:  r,
				Stats:     r.Stats(),
			})
			return nil
		}
		top := stack[len(stack)-1]
		head, rest := top[0], top[1:]
		base := append(stack[:len(stack)-1:len(stack)-1], rest)

		switch v := head.(type) {
		case OpElem:
			return walk(base)
		case Branch:
			for d := range v.Arms {
				decisions[v.Site] = d
				next := append(base[:len(base):len(base)], v.Arms[d])
				if err := walk(next); err != nil {
					return err
				}
			}
			decisions[v.Site] = 0
			return nil
		case Repeat:
			for d := 0; d <= v.Max-v.Min; d++ {
				decisions[v.Site] = d
				next := base
				for i := 0; i < v.Min+d; i++ {
					next = append(next[:len(next):len(next)], v.Body)
				}
				if err := walk(next); err != nil {
					return err
				}
			}
			decisions[v.Site] = 0
			return nil
		}
		return fmt.Errorf("graph: unknown elem %T", head)
	}
	if err := walk([][]Elem{s.Elems}); err != nil {
		return nil, err
	}
	return paths, nil
}
