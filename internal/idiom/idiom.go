// Package idiom implements the paper's idiom-based operator representation
// (§IV-A2). Each ML operator is characterized by six pervasive memory-access
// idioms — transpose, gather, scatter, reduction, stream, stencil — and is
// encoded as a nine-element signature: six idiom occurrence counts plus three
// elements summarizing input-tensor dimensions.
//
// The paper counts idioms with an LLVM-based static analysis over operator
// kernels. This package substitutes a small loop-nest kernel IR plus an
// analyzer that classifies tensor accesses into the idioms; every operator in
// the registry carries a kernel description and its signature is *computed*
// from it, not hand-assigned.
package idiom

import "fmt"

// Idiom enumerates the six memory-access idioms of §IV-A2.
type Idiom int

const (
	Transpose Idiom = iota // A[i][j] = B[j][i]
	Gather                 // A[i][j] = B[C[i]]
	Scatter                // B[C[i]] = A[i][j]
	Reduction              // a += A[i][j]
	Stream                 // A[i][j] = A[i][j] + B[i][j]
	Stencil                // A[i][j] = A[i-1][j] + A[i+1][j]

	NumIdioms = 6
)

func (id Idiom) String() string {
	switch id {
	case Transpose:
		return "transpose"
	case Gather:
		return "gather"
	case Scatter:
		return "scatter"
	case Reduction:
		return "reduction"
	case Stream:
		return "stream"
	case Stencil:
		return "stencil"
	}
	return fmt.Sprintf("idiom(%d)", int(id))
}

// SigLen is the length of an operator signature: six idiom counts plus three
// input-dimension elements (§IV-A2: "a nine-element vector").
const SigLen = 9

// Signature is the nine-element operator vector. Elements 0–5 are idiom
// occurrence counts; elements 6–8 accumulate the first three input-tensor
// dimension sizes (as in the paper's matmul example, where they hold
// ar+br and ac+bc).
type Signature [SigLen]float64

// WithDims returns a copy of s whose dimension elements (6–8) are the sums of
// the leading dimensions of the given input shapes.
func (s Signature) WithDims(inputShapes ...[]int) Signature {
	out := s
	out[6], out[7], out[8] = 0, 0, 0
	for _, shape := range inputShapes {
		for k := 0; k < 3 && k < len(shape); k++ {
			out[6+k] += float64(shape[k])
		}
	}
	return out
}

// Add returns the element-wise sum of two signatures; used when accumulating
// execution-block descriptors.
func (s Signature) Add(o Signature) Signature {
	var out Signature
	for i := range s {
		out[i] = s[i] + o[i]
	}
	return out
}

// ControlFlowRow is the dummy AFM row marking a control statement.
var ControlFlowRow = Signature{}
