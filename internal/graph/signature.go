package graph

import (
	"math/bits"
	"strconv"
	"strings"
)

// This file defines the canonical control-flow signature of a resolved path —
// the key of the runtime's resolved-plan cache (DyCL-style: dynamic control
// flow rewritten into enumerable static sub-graphs, each served from one
// compiled plan). Two resolved graphs get equal signatures exactly when their
// model and operator sequences are identical, so the signature is strictly
// more canonical than the decision-vector path key: decision vectors that
// differ only at unreached sites — or that route through different sites into
// the same operator sequence — collapse onto one signature and therefore one
// immutable plan.

// PathSignature canonicalizes a resolved path into a deterministic string.
// The encoding is injective on (model name, operator sequence): it writes the
// model name, the operator count, and each operator's identity token
// (name, FLOPs, and the nine-element idiom/dimension signature), run-length
// compressed over consecutive repeats so deep stacked models stay compact.
//
// Properties the plan-cache and fuzz layers rely on:
//
//   - equal signatures ⇒ identical operator sequences ⇒ identical resolved
//     plans (a plan is a pure function of the operator sequence and the
//     execution context);
//   - unequal operator sequences ⇒ unequal signatures (the token stream is a
//     prefix-free encoding of the sequence: the leading count pins the
//     sequence length, every token is delimited, and run lengths are
//     explicit).
func PathSignature(r *Resolved) string {
	var sb strings.Builder
	sb.Grow(64 + 24*len(r.Ops))
	sb.WriteString(r.ModelName)
	sb.WriteByte('#')
	sb.WriteString(strconv.Itoa(len(r.Ops)))
	prev := ""
	run := 0
	flush := func() {
		if run == 0 {
			return
		}
		sb.WriteByte('|')
		sb.WriteString(prev)
		if run > 1 {
			sb.WriteByte('x')
			sb.WriteString(strconv.Itoa(run))
		}
	}
	for _, op := range r.Ops {
		tok := opToken(op)
		if tok == prev {
			run++
			continue
		}
		flush()
		prev, run = tok, 1
	}
	flush()
	return sb.String()
}

// opToken renders one operator's identity: name, FLOPs, and the idiom
// signature (which already folds in the input-dimension sums, so shape
// differences separate signatures without serializing every tensor). Run
// detection compares these rendered tokens, so two operators collapse into a
// run exactly when their tokens — and therefore their decoded identities —
// are equal.
func opToken(op *Op) string {
	var sb strings.Builder
	sb.Grow(24)
	sb.WriteString(op.Name)
	sb.WriteByte(':')
	sb.WriteString(strconv.FormatInt(op.FLOPs, 10))
	for _, v := range op.Sig {
		sb.WriteByte(':')
		sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	return sb.String()
}

// SignatureHash128 folds one or more strings into a 128-bit FNV-1a
// fingerprint (hi, lo). The plan-cache key layer uses it to replace the full
// signature+fingerprint string — whose comparison walked hundreds of bytes on
// every L2 hit — with a fixed 16-byte digest. Each part is terminated by a
// delimiter byte folded into the state, so ("ab","c") and ("a","bc") hash
// differently: the encoding stays prefix-free across parts.
//
// 128 bits keeps accidental collisions out of reach for any real path
// population (millions of distinct signatures sit at ~2^-80 collision odds),
// which is what lets the resolved-plan cache key drop the injective string.
func SignatureHash128(parts ...string) (hi, lo uint64) {
	// FNV-1a 128-bit offset basis and prime (2^88 + 2^8 + 0x3b), computed on
	// a 128-bit state carried as two 64-bit limbs.
	const (
		offsetHi = 0x6C62272E07BB0142
		offsetLo = 0x62B821756295C58D
		primeHi  = 1 << 24 // prime = primeHi<<64 + primeLo
		primeLo  = 0x13B
	)
	hi, lo = offsetHi, offsetLo
	mix := func(b byte) {
		lo ^= uint64(b)
		// (hi,lo) *= prime, mod 2^128.
		carryHi, newLo := bits.Mul64(lo, primeLo)
		newHi := carryHi + hi*primeLo + lo*primeHi
		hi, lo = newHi, newLo
	}
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			mix(p[i])
		}
		mix(0x1E) // record separator: delimits parts prefix-free
	}
	return hi, lo
}
