// Package tensor defines tensor metadata used throughout the simulator.
//
// The offloading policies studied in this repository never look at tensor
// contents; they reason about identity, kind, shape, and byte size. A tensor
// here is therefore pure metadata. Actual numeric computation (the pilot
// model) lives in internal/mathx and internal/nn.
package tensor

import (
	"fmt"
	"sync/atomic"
)

// DType is the element type of a tensor.
type DType int

const (
	F32 DType = iota
	F16
	BF16
	I64
	I32
	I8
)

// Size returns the byte width of one element.
func (d DType) Size() int64 {
	switch d {
	case F32, I32:
		return 4
	case F16, BF16:
		return 2
	case I64:
		return 8
	case I8:
		return 1
	}
	panic(fmt.Sprintf("tensor: unknown dtype %d", int(d))) //dynnlint:ignore panicfree unknown dtype is unreachable for the fixed enum; guards future edits
}

func (d DType) String() string {
	switch d {
	case F32:
		return "f32"
	case F16:
		return "f16"
	case BF16:
		return "bf16"
	case I64:
		return "i64"
	case I32:
		return "i32"
	case I8:
		return "i8"
	}
	return fmt.Sprintf("dtype(%d)", int(d))
}

// Kind classifies the role a tensor plays during training. Offloading
// policies treat kinds differently: DTR may only evict activations, ZeRO
// offloads optimizer states and gradients, and weights are never
// rematerializable.
type Kind int

const (
	Input Kind = iota
	Weight
	Gradient
	OptState
	Activation
	Constant
	Workspace
)

func (k Kind) String() string {
	switch k {
	case Input:
		return "input"
	case Weight:
		return "weight"
	case Gradient:
		return "gradient"
	case OptState:
		return "optstate"
	case Activation:
		return "activation"
	case Constant:
		return "constant"
	case Workspace:
		return "workspace"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Meta describes one tensor.
type Meta struct {
	ID    int64
	Name  string
	Kind  Kind
	DType DType
	Shape []int
}

// Elems returns the number of elements.
func (m *Meta) Elems() int64 {
	n := int64(1)
	for _, d := range m.Shape {
		n *= int64(d)
	}
	return n
}

// Bytes returns the total storage size in bytes.
func (m *Meta) Bytes() int64 { return m.Elems() * m.DType.Size() }

func (m *Meta) String() string {
	return fmt.Sprintf("%s#%d %s %s%v (%d B)", m.Name, m.ID, m.Kind, m.DType, m.Shape, m.Bytes())
}

// Registry hands out unique tensor IDs. The zero value is ready to use.
type Registry struct {
	next atomic.Int64
}

// New creates a tensor with a fresh ID.
func (r *Registry) New(name string, kind Kind, dt DType, shape ...int) *Meta {
	s := make([]int, len(shape))
	copy(s, shape)
	return &Meta{ID: r.next.Add(1), Name: name, Kind: kind, DType: dt, Shape: s}
}

// TotalBytes sums the sizes of the given tensors, counting each ID once.
func TotalBytes(ts []*Meta) int64 {
	seen := make(map[int64]bool, len(ts))
	var total int64
	for _, t := range ts {
		if t == nil || seen[t.ID] {
			continue
		}
		seen[t.ID] = true
		total += t.Bytes()
	}
	return total
}
