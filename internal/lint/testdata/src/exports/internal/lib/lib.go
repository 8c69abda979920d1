// Package lib seeds the export guard: one exported function without a caller
// among exports that are reached by a call, a generic instantiation, fmt's
// %v verb, and errors.Is.
package lib

import "fmt"

// Point prints as "(x,y)".
type Point struct{ X, Y int }

// String is reached only through fmt's %v (fmt.Stringer).
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Called has a caller in main.
func Called() Point { return Point{X: 1, Y: 2} }

// First is called through an instantiation, First[int].
func First[T any](xs []T) T { return xs[0] }

// Planted has no caller: the fixture's one finding.
func Planted() int { return 0 }

// Wrap wraps err in an error whose Unwrap only errors.Is calls.
func Wrap(err error) error { return &wrapped{err: err} }

type wrapped struct{ err error }

func (w *wrapped) Error() string { return "wrapped: " + w.err.Error() }

// Unwrap is reached only through errors.Is.
func (w *wrapped) Unwrap() error { return w.err }
