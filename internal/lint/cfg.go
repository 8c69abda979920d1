package lint

import (
	"go/ast"
	"go/token"
)

// This file is the control-flow layer under the flow-sensitive analyzers
// (allocleak): a per-function CFG built from go/ast, with
// branch edges annotated by their condition so guard-style facts ("acquired
// iff err == nil") can be refined at the branch instead of merged away.
//
// The graph is statement-granular: each basic block holds a run of
// straight-line statements; terminators (if/for/switch/return/branch) split
// blocks and add labeled edges. Deferred calls are collected per function and
// replayed by the analyzers at every exit, which is how `defer a.Free(id)`
// satisfies a release-on-all-paths obligation.

// cfgEdge is one control transfer. When cond is non-nil the edge is taken
// only when cond evaluates to (!negate); the else/false edge of the same
// branch carries the identical cond with negate flipped.
type cfgEdge struct {
	to     *cfgBlock
	cond   ast.Expr
	negate bool
}

// cfgBlock is a run of straight-line statements with outgoing edges.
type cfgBlock struct {
	index int
	nodes []ast.Node
	succs []cfgEdge
	// returns holds the return statement terminating this block, if any.
	ret *ast.ReturnStmt
	// exits marks the block as flowing to the synthetic function exit
	// (either a return or falling off the end of the body).
	exits bool
}

// funcCFG is the control-flow graph of one function body.
type funcCFG struct {
	blocks []*cfgBlock
	entry  *cfgBlock
	// defers are the deferred calls in source order; analyzers replay them
	// (in reverse, like the runtime) at every exit.
	defers []*ast.CallExpr
}

// loopFrame tracks the jump targets of the innermost enclosing loops and
// switches for break/continue resolution.
type loopFrame struct {
	label   string
	breakTo *cfgBlock
	contTo  *cfgBlock // nil for switch/select frames
	isLoop  bool
}

// cfgBuilder accumulates blocks while walking a function body.
type cfgBuilder struct {
	g            *funcCFG
	cur          *cfgBlock
	frames       []loopFrame
	pendingLabel string
}

// buildCFG constructs the CFG of a function body. The builder is
// conservative: constructs it cannot model precisely (goto, labeled
// fallthrough chains) fall back to edges that over-approximate reachability,
// which for the leak analyses means at worst a missed report, never a false
// one on code the builder does model.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	g := &funcCFG{}
	b := &cfgBuilder{g: g}
	b.cur = b.newBlock()
	g.entry = b.cur
	b.stmtList(body.List)
	if b.cur != nil {
		b.cur.exits = true
	}
	return g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{index: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

// edge links from→to. A nil from (dead code after a terminator) is ignored.
func edge(from, to *cfgBlock, cond ast.Expr, negate bool) {
	if from == nil || to == nil {
		return
	}
	from.succs = append(from.succs, cfgEdge{to: to, cond: cond, negate: negate})
}

// emit appends a straight-line node to the current block.
func (b *cfgBuilder) emit(n ast.Node) {
	if b.cur != nil && n != nil {
		b.cur.nodes = append(b.cur.nodes, n)
	}
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// stmt translates one statement, advancing b.cur (nil when control cannot
// continue past the statement).
func (b *cfgBuilder) stmt(s ast.Stmt) {
	if b.cur == nil {
		// Unreachable code after return/branch: parse it into a detached
		// block so nested defers are still collected, but leave it
		// unconnected.
		b.cur = b.newBlock()
		b.cur.exits = false
		defer func() { b.cur = nil }()
	}
	switch v := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(v.List)
	case *ast.IfStmt:
		b.ifStmt(v)
	case *ast.ForStmt:
		b.forStmt(v)
	case *ast.RangeStmt:
		b.rangeStmt(v)
	case *ast.SwitchStmt:
		b.switchStmt(v)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(v)
	case *ast.SelectStmt:
		b.selectStmt(v)
	case *ast.ReturnStmt:
		b.emit(v)
		b.cur.ret = v
		b.cur.exits = true
		b.cur = nil
	case *ast.BranchStmt:
		b.branchStmt(v)
	case *ast.DeferStmt:
		b.g.defers = append(b.g.defers, v.Call)
		b.emit(v)
	case *ast.LabeledStmt:
		// Record the label on the enclosing frame stack by translating the
		// labeled statement with the label visible to loop constructs.
		b.labeledStmt(v)
	case *ast.GoStmt:
		b.emit(v)
	default:
		b.emit(s)
	}
}

func (b *cfgBuilder) ifStmt(v *ast.IfStmt) {
	if v.Init != nil {
		b.emit(v.Init)
	}
	b.emit(&condNode{cond: v.Cond})
	condBlk := b.cur

	thenBlk := b.newBlock()
	edge(condBlk, thenBlk, v.Cond, false)
	b.cur = thenBlk
	b.stmtList(v.Body.List)
	thenEnd := b.cur

	var elseEnd *cfgBlock
	hasElse := v.Else != nil
	var elseBlk *cfgBlock
	if hasElse {
		elseBlk = b.newBlock()
		edge(condBlk, elseBlk, v.Cond, true)
		b.cur = elseBlk
		b.stmt(v.Else)
		elseEnd = b.cur
	}

	after := b.newBlock()
	edge(thenEnd, after, nil, false)
	if hasElse {
		edge(elseEnd, after, nil, false)
	} else {
		edge(condBlk, after, v.Cond, true)
	}
	b.cur = after
}

func (b *cfgBuilder) forStmt(v *ast.ForStmt) {
	if v.Init != nil {
		b.emit(v.Init)
	}
	head := b.newBlock()
	edge(b.cur, head, nil, false)
	if v.Cond != nil {
		head.nodes = append(head.nodes, &condNode{cond: v.Cond})
	}

	body := b.newBlock()
	after := b.newBlock()
	if v.Cond != nil {
		edge(head, body, v.Cond, false)
		edge(head, after, v.Cond, true)
	} else {
		edge(head, body, nil, false)
		// for {} without break never reaches after; a break edge adds it.
	}

	b.pushFrame("", after, head, true)
	b.cur = body
	b.stmtList(v.Body.List)
	if v.Post != nil {
		b.emit(v.Post)
	}
	edge(b.cur, head, nil, false)
	b.popFrame()
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(v *ast.RangeStmt) {
	head := b.newBlock()
	edge(b.cur, head, nil, false)
	head.nodes = append(head.nodes, v) // the range header itself (defines key/value)

	body := b.newBlock()
	after := b.newBlock()
	edge(head, body, nil, false)
	edge(head, after, nil, false) // zero-iteration path

	b.pushFrame("", after, head, true)
	b.cur = body
	b.stmtList(v.Body.List)
	edge(b.cur, head, nil, false)
	b.popFrame()
	b.cur = after
}

func (b *cfgBuilder) switchStmt(v *ast.SwitchStmt) {
	if v.Init != nil {
		b.emit(v.Init)
	}
	if v.Tag != nil {
		b.emit(&condNode{cond: v.Tag})
	}
	head := b.cur
	after := b.newBlock()
	b.pushFrame("", after, nil, false)
	hasDefault := false
	var caseEnds []*cfgBlock
	for _, c := range v.Body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		blk := b.newBlock()
		edge(head, blk, nil, false)
		b.cur = blk
		b.stmtList(cc.Body)
		caseEnds = append(caseEnds, b.cur)
	}
	// fallthrough is modeled as an ordinary edge case→case via branchStmt.
	for _, end := range caseEnds {
		edge(end, after, nil, false)
	}
	if !hasDefault {
		edge(head, after, nil, false)
	}
	b.popFrame()
	b.cur = after
}

func (b *cfgBuilder) typeSwitchStmt(v *ast.TypeSwitchStmt) {
	if v.Init != nil {
		b.emit(v.Init)
	}
	b.emit(v.Assign)
	head := b.cur
	after := b.newBlock()
	b.pushFrame("", after, nil, false)
	hasDefault := false
	for _, c := range v.Body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		blk := b.newBlock()
		edge(head, blk, nil, false)
		b.cur = blk
		b.stmtList(cc.Body)
		edge(b.cur, after, nil, false)
	}
	if !hasDefault {
		edge(head, after, nil, false)
	}
	b.popFrame()
	b.cur = after
}

func (b *cfgBuilder) selectStmt(v *ast.SelectStmt) {
	head := b.cur
	after := b.newBlock()
	b.pushFrame("", after, nil, false)
	for _, c := range v.Body.List {
		cc := c.(*ast.CommClause)
		blk := b.newBlock()
		edge(head, blk, nil, false)
		b.cur = blk
		if cc.Comm != nil {
			b.emit(cc.Comm)
		}
		b.stmtList(cc.Body)
		edge(b.cur, after, nil, false)
	}
	if len(v.Body.List) == 0 {
		edge(head, after, nil, false)
	}
	b.popFrame()
	b.cur = after
}

func (b *cfgBuilder) branchStmt(v *ast.BranchStmt) {
	label := ""
	if v.Label != nil {
		label = v.Label.Name
	}
	switch v.Tok {
	case token.BREAK:
		if f := b.findFrame(label, false); f != nil {
			edge(b.cur, f.breakTo, nil, false)
		}
		b.cur = nil
	case token.CONTINUE:
		if f := b.findFrame(label, true); f != nil {
			edge(b.cur, f.contTo, nil, false)
		}
		b.cur = nil
	case token.FALLTHROUGH:
		// Handled approximately: control continues to the switch's after
		// block via the case-end edge added by switchStmt. Acceptable
		// over-approximation (facts merge at after).
		b.cur = nil
	case token.GOTO:
		// Rare in this codebase; treat as an opaque exit so analyses stay
		// silent rather than wrong.
		b.cur.exits = true
		b.cur = nil
	}
}

func (b *cfgBuilder) labeledStmt(v *ast.LabeledStmt) {
	switch inner := v.Stmt.(type) {
	case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		// Translate the inner statement, then rename the frame it pushed.
		b.pendingLabel = v.Label.Name
		b.stmt(inner)
		b.pendingLabel = ""
	default:
		b.stmt(v.Stmt)
	}
}

func (b *cfgBuilder) pushFrame(label string, breakTo, contTo *cfgBlock, isLoop bool) {
	if b.pendingLabel != "" {
		label = b.pendingLabel
		b.pendingLabel = ""
	}
	b.frames = append(b.frames, loopFrame{label: label, breakTo: breakTo, contTo: contTo, isLoop: isLoop})
}

func (b *cfgBuilder) popFrame() {
	b.frames = b.frames[:len(b.frames)-1]
}

// findFrame resolves break/continue targets: an empty label matches the
// innermost applicable frame (any for break, loops for continue); a label
// matches the frame carrying it.
func (b *cfgBuilder) findFrame(label string, needLoop bool) *loopFrame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if needLoop && !f.isLoop {
			continue
		}
		if label == "" || f.label == label {
			return f
		}
	}
	return nil
}

// condNode wraps a branch condition so transfer functions see its
// sub-expressions (an acquisition call inside an if-condition must still
// register) without it being a statement.
type condNode struct {
	cond ast.Expr
}

func (c *condNode) Pos() token.Pos { return c.cond.Pos() }
func (c *condNode) End() token.Pos { return c.cond.End() }
