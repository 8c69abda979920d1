package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Clockunits is a lightweight units-of-measure pass for the deterministic
// packages: int64s are tagged as simulated nanoseconds (Streams busy-until
// times, DES event times, every Breakdown time), wall-clock nanoseconds
// (Stopwatch reads, the pilot's inference and mapping latencies), or bytes,
// and additive arithmetic or comparisons that mix dimensions are flagged.
// A wall-clock value leaking into simulated-time arithmetic is the bug
// class behind "latency is simulated device time only" — it corrupts
// replays silently instead of crashing.
//
// The tagging is deliberately conservative: *NS names are a generic
// nanosecond flavor compatible with both clocks, multiplication/division
// change dimension and reset to unknown, and unknown mixes with anything.
// Only provably-cross-dimension operations report.
var Clockunits = &Analyzer{
	Name: "clockunits",
	Doc:  "flag arithmetic/comparisons mixing simulated-ns, wall-ns, and byte quantities",
	Run:  runClockunits,
}

type unit int

const (
	unitUnknown unit = iota
	unitGenericNS
	unitSimNS
	unitWallNS
	unitBytes
)

func (u unit) String() string {
	switch u {
	case unitSimNS:
		return "simulated-ns"
	case unitWallNS:
		return "wall-ns"
	case unitGenericNS:
		return "ns"
	case unitBytes:
		return "bytes"
	}
	return "unknown"
}

// methodUnits tags known accessor results: pkg → type → method → unit.
var methodUnits = map[string]map[string]map[string]unit{
	gpusimPath: {
		"Streams": {
			"RunSpan": unitSimNS, "TrySpan": unitSimNS,
		},
		"Breakdown": {"TotalNS": unitSimNS, "DeviceNS": unitSimNS},
	},
	obsvPath: {
		"Stopwatch":             {"ElapsedNS": unitWallNS},
		"AttributionComponents": {"TotalNS": unitSimNS},
	},
}

// fieldUnits tags known struct fields: pkg → type → field → unit. Fields not
// listed fall back to the name-suffix heuristic.
var fieldUnits = map[string]map[string]map[string]unit{
	corePath: {
		"SampleResult": {"PilotNS": unitWallNS, "MappingNS": unitWallNS},
		"EpochReport":  {"PilotNS": unitWallNS, "MappingNS": unitWallNS},
	},
	pilotPath: {
		"Resolution": {"InferNS": unitWallNS, "MapNS": unitWallNS},
	},
	gpusimPath: {
		"Breakdown": {
			"ComputeNS": unitSimNS, "ExposedXferNS": unitSimNS, "OverlapXferNS": unitSimNS,
			"RematNS": unitSimNS, "FaultNS": unitSimNS, "OverheadNS": unitSimNS,
			"H2DBytes": unitBytes, "D2HBytes": unitBytes, "PeakGPUBytes": unitBytes,
		},
		"Streams": {"Compute": unitSimNS, "H2D": unitSimNS, "D2H": unitSimNS},
	},
	obsvPath: {
		"Span": {"StartNS": unitSimNS, "DurNS": unitSimNS},
		"AttributionComponents": {
			"QueueNS": unitSimNS, "QuotaNS": unitSimNS, "PilotNS": unitSimNS,
			"PilotRetrainNS": unitSimNS,
			"ComputeNS":      unitSimNS, "ExposedNS": unitSimNS, "RematNS": unitSimNS,
			"FaultNS": unitSimNS, "AllReduceNS": unitSimNS, "BatchNS": unitSimNS,
		},
		"AttributionComponent": {"NS": unitSimNS},
		"FlightEvent":          {"AtNS": unitSimNS, "DurNS": unitSimNS, "Bytes": unitBytes},
		"FlightSnapshot":       {"AtNS": unitSimNS},
		"RequestView":          {"StartNS": unitSimNS, "EndNS": unitSimNS, "QueueNS": unitSimNS},
	},
}

func runClockunits(pass *Pass) {
	if !inDeterministicScope(pass.Path) {
		return
	}
	uc := &unitChecker{pass: pass, summaries: map[*types.Func]funcUnitSummary{}}
	// Two rounds so same-package helper summaries (serviceTime, max64) are
	// visible when the callers are checked.
	for round := 0; round < 2; round++ {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					uc.summarize(fd)
				}
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				uc.check(fd)
			}
		}
	}
}

// funcUnitSummary is what a call to a same-package function yields.
type funcUnitSummary struct {
	parametric bool // returns one of its int64 params: unit joins the args'
	u          unit
}

type unitChecker struct {
	pass      *Pass
	summaries map[*types.Func]funcUnitSummary
	locals    map[types.Object]unit // per-function, rebuilt in inferLocals
}

// suffixUnit is the naming-convention fallback.
func suffixUnit(name string) unit {
	switch {
	case strings.HasSuffix(name, "NS"):
		return unitGenericNS
	case strings.HasSuffix(name, "Bytes"), name == "bytes":
		return unitBytes
	}
	return unitUnknown
}

// isIntExpr restricts the analysis to integer quantities.
func (uc *unitChecker) isIntExpr(e ast.Expr) bool {
	t := uc.pass.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// exprUnit resolves the unit of an expression under the current locals.
func (uc *unitChecker) exprUnit(e ast.Expr) unit {
	e = unparen(e)
	if !uc.isIntExpr(e) {
		if _, isCall := e.(*ast.CallExpr); !isCall {
			return unitUnknown
		}
	}
	// Constants carry no dimension.
	if tv, ok := uc.pass.Info.Types[e]; ok && tv.Value != nil {
		return unitUnknown
	}
	switch v := e.(type) {
	case *ast.Ident:
		if obj := objectOf(uc.pass.Info, v); obj != nil {
			if u, ok := uc.locals[obj]; ok && u != unitUnknown {
				return u
			}
		}
		return suffixUnit(v.Name)
	case *ast.SelectorExpr:
		if named := namedOf(uc.pass.Info.TypeOf(v.X)); named != nil && named.Obj().Pkg() != nil {
			if byType, ok := fieldUnits[named.Obj().Pkg().Path()]; ok {
				if byField, ok := byType[named.Obj().Name()]; ok {
					if u, ok := byField[v.Sel.Name]; ok {
						return u
					}
				}
			}
		}
		return suffixUnit(v.Sel.Name)
	case *ast.CallExpr:
		return uc.callUnit(v)
	case *ast.UnaryExpr:
		if v.Op == token.SUB || v.Op == token.ADD {
			return uc.exprUnit(v.X)
		}
	case *ast.BinaryExpr:
		switch v.Op {
		case token.ADD, token.SUB:
			return joinUnits(uc.exprUnit(v.X), uc.exprUnit(v.Y))
		}
		return unitUnknown
	case *ast.IndexExpr:
		return uc.exprUnit(v.X)
	}
	return unitUnknown
}

// joinUnits combines operand units into a result unit, staying conservative:
// agreement keeps the unit, any ns-family mix degrades to generic ns, and
// anything touching unknown (or bytes vs ns, which is reported separately)
// yields unknown.
func joinUnits(a, b unit) unit {
	if a == b {
		return a
	}
	if a == unitUnknown || b == unitUnknown {
		return unitUnknown
	}
	if isNSUnit(a) && isNSUnit(b) {
		return unitGenericNS
	}
	return unitUnknown
}

func isNSUnit(u unit) bool {
	return u == unitSimNS || u == unitWallNS || u == unitGenericNS
}

// callUnit resolves a call's result unit: the accessor table, then
// same-package summaries, then the callee-name suffix.
func (uc *unitChecker) callUnit(call *ast.CallExpr) unit {
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if named := namedOf(uc.pass.Info.TypeOf(sel.X)); named != nil && named.Obj().Pkg() != nil {
			if byType, ok := methodUnits[named.Obj().Pkg().Path()]; ok {
				if byMethod, ok := byType[named.Obj().Name()]; ok {
					if u, ok := byMethod[sel.Sel.Name]; ok {
						return u
					}
				}
			}
		}
	}
	if fn := calleeFunc(uc.pass.Info, call); fn != nil {
		if sum, ok := uc.summaries[fn]; ok {
			if !sum.parametric {
				return sum.u
			}
			u := unitUnknown
			first := true
			for _, arg := range call.Args {
				if !uc.isIntExpr(arg) {
					continue
				}
				au := uc.exprUnit(arg)
				if first {
					u, first = au, false
				} else {
					u = joinUnits(u, au)
				}
			}
			return u
		}
		return suffixUnit(fn.Name())
	}
	return unitUnknown
}

// inferLocals propagates units into local variables from their assignments;
// conflicting reassignment degrades via joinUnits.
func (uc *unitChecker) inferLocals(fd *ast.FuncDecl) {
	uc.locals = map[types.Object]unit{}
	// Parameters and results start from their name suffixes only (already
	// handled by the ident fallback), so just walk assignments. Two passes
	// resolve var-to-var chains.
	for round := 0; round < 2; round++ {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || (as.Tok != token.DEFINE && as.Tok != token.ASSIGN) {
				return true
			}
			if len(as.Lhs) == len(as.Rhs) {
				for i, lhs := range as.Lhs {
					id, ok := unparen(lhs).(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					obj := objectOf(uc.pass.Info, id)
					if obj == nil || !uc.isIntExpr(lhs) {
						continue
					}
					uc.mergeLocal(obj, uc.exprUnit(as.Rhs[i]))
				}
			} else if len(as.Rhs) == 1 {
				// Multi-value: start, end := streams.RunSpan(...)
				call, ok := unparen(as.Rhs[0]).(*ast.CallExpr)
				if !ok {
					return true
				}
				u := uc.callUnit(call)
				if u == unitUnknown {
					return true
				}
				for _, lhs := range as.Lhs {
					id, ok := unparen(lhs).(*ast.Ident)
					if !ok || id.Name == "_" || !uc.isIntExpr(lhs) {
						continue
					}
					if obj := objectOf(uc.pass.Info, id); obj != nil {
						uc.mergeLocal(obj, u)
					}
				}
			}
			return true
		})
	}
}

func (uc *unitChecker) mergeLocal(obj types.Object, u unit) {
	if u == unitUnknown {
		return
	}
	if old, ok := uc.locals[obj]; ok && old != u {
		uc.locals[obj] = joinUnits(old, u)
		return
	}
	uc.locals[obj] = u
}

// summarize records what calling fd yields, for same-package callers.
func (uc *unitChecker) summarize(fd *ast.FuncDecl) {
	fn, _ := uc.pass.Info.Defs[fd.Name].(*types.Func)
	if fn == nil || fd.Type.Results == nil || len(fd.Type.Results.List) == 0 {
		return
	}
	uc.inferLocals(fd)
	params := map[types.Object]bool{}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := uc.pass.Info.Defs[name]; obj != nil {
					params[obj] = true
				}
			}
		}
	}
	parametric := true
	u := unitUnknown
	first := true
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) == 0 {
			return true
		}
		res := unparen(ret.Results[0])
		if id, ok := res.(*ast.Ident); !ok || !params[objectOf(uc.pass.Info, id)] {
			parametric = false
		}
		ru := uc.exprUnit(ret.Results[0])
		if first {
			u, first = ru, false
		} else {
			u = joinUnits(u, ru)
		}
		return true
	})
	if first {
		return // no value-carrying returns (named results only): stay unknown
	}
	if parametric {
		uc.summaries[fn] = funcUnitSummary{parametric: true}
		return
	}
	uc.summaries[fn] = funcUnitSummary{u: u}
}

// check walks one function reporting cross-dimension additive arithmetic and
// comparisons.
func (uc *unitChecker) check(fd *ast.FuncDecl) {
	uc.inferLocals(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.BinaryExpr:
			switch v.Op {
			case token.ADD, token.SUB, token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
				uc.reportMix(v.OpPos, v.Op, v.X, v.Y)
			}
		case *ast.AssignStmt:
			if (v.Tok == token.ADD_ASSIGN || v.Tok == token.SUB_ASSIGN) && len(v.Lhs) == 1 && len(v.Rhs) == 1 {
				uc.reportMix(v.TokPos, v.Tok, v.Lhs[0], v.Rhs[0])
			}
		}
		return true
	})
}

func (uc *unitChecker) reportMix(pos token.Pos, op token.Token, x, y ast.Expr) {
	if !uc.isIntExpr(x) || !uc.isIntExpr(y) {
		return
	}
	ux, uy := uc.exprUnit(x), uc.exprUnit(y)
	if !unitsConflict(ux, uy) {
		return
	}
	uc.pass.Report(pos, "%s mixes %s with %s; convert explicitly or keep the dimensions apart (simulated and wall clocks must never meet)",
		op, ux, uy)
}

// unitsConflict reports a provable cross-dimension mix.
func unitsConflict(a, b unit) bool {
	if a == unitUnknown || b == unitUnknown || a == b {
		return false
	}
	if a == unitBytes || b == unitBytes {
		return true // bytes vs any ns flavor
	}
	return (a == unitSimNS && b == unitWallNS) || (a == unitWallNS && b == unitSimNS)
}
