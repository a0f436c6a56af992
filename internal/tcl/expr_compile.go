package tcl

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// This file is the one expression front end: it compiles a source to a
// small AST once, and the tree evaluates left to right, so hot
// expressions (loop tests, callback arithmetic) parse once. The
// compiler is purely syntactic — it never touches the interpreter —
// and it compiles every source, malformed ones included: each parse
// error becomes an exprErrNode placed where a parse-as-you-evaluate
// reader would meet it, so the operands before the error run (or are
// skipped) in source order and then the error is raised with its
// classic text. The original one-pass evaluator survives as the test
// oracle in expr_oracle_test.go.

type exprNode interface {
	eval(ev *exprEvaluator) (exprVal, error)
}

// exprEvaluator carries evaluation state: the interpreter for
// substitutions and the skip depth for short-circuited operands.
type exprEvaluator struct {
	in *Interp
	// skipDepth > 0 means the operand being evaluated will not be used
	// (short-circuited && / || or the untaken ternary branch); variable
	// and command substitution is suppressed and operator errors are
	// ignored, as the one-pass reader of classic Tcl did.
	skipDepth int
	// slots holds the pre-fetched operand values of an expr template
	// (exprSlotNode); nil outside template evaluation.
	slots []Value
}

type exprLit struct{ v exprVal }

func (n *exprLit) eval(*exprEvaluator) (exprVal, error) { return n.v, nil }

type exprVarNode struct {
	tok token
	// ref is this site's variable-pointer cache. Compiled expression
	// ASTs are per-interpreter (exprCache and Program.loops both are),
	// so the frame-id/epoch validation in cachedScalar is sound here
	// for the same reason it is for Program.vrefs.
	ref varRef
}

func (n *exprVarNode) eval(ev *exprEvaluator) (exprVal, error) {
	if ev.skipDepth > 0 {
		return intVal(0), nil
	}
	if n.tok.kind == tokVar && !n.tok.hasIdx {
		// Typed fast path: a plain scalar in the current frame hands
		// its machine representation straight to the evaluator. Arrays
		// and missing variables fall through to substToken, which
		// raises the classic error messages.
		if v, ok := ev.in.cachedScalar(&n.ref, n.tok.text); ok {
			return coerce(v.val)
		}
	}
	s, err := ev.in.substToken(n.tok)
	if err != nil {
		return exprVal{}, err
	}
	return coerce(strVal(s))
}

type exprCmdNode struct {
	script *Script

	// Single-expr fast path: when the bracketed script is exactly one
	// command that compiled to an expr template, the template can be
	// evaluated directly, skipping a full trip through the script
	// machinery (nesting bookkeeping, program lookup, instruction
	// dispatch) per evaluation. Resolved lazily per interpreter; owner
	// guards against a node ever being shared across interpreters.
	owner *Interp
	tmpl  *exprTemplate
	tcmd  *progCmd
}

func (n *exprCmdNode) eval(ev *exprEvaluator) (exprVal, error) {
	if ev.skipDepth > 0 {
		return intVal(0), nil
	}
	in := ev.in
	if n.owner != in {
		n.owner, n.tmpl, n.tcmd = in, nil, nil
		if n.script != nil && n.script.parseErr == nil {
			p := in.program(n.script)
			if len(p.cmds) == 1 {
				c := &p.cmds[0]
				if c.end-c.start == 1 && p.insns[c.start].op == opExprTmpl {
					n.tmpl = p.tmpls[p.insns[c.start].a]
					n.tcmd = c
				}
			}
		}
	}
	// The direct path is valid only under exactly the conditions where
	// execScript would have reached the same opExprTmpl with nothing
	// observable in between: the VM (not the oracle's walker), no
	// profiler (a profiled [expr ...] is its own site), expr still
	// the builtin, and an enclosing evaluation already on the stack
	// (at nesting 0 the inner script would run at level 1 and record
	// its own errorInfo frame, which only evalScriptV reproduces).
	// A template AST contains no command nodes, so skipping the
	// nesting increment cannot unbound recursion.
	if n.tmpl != nil && in.walker == nil && in.prof == nil &&
		in.nesting >= 1 && in.specialGen == in.specialBase {
		v, _, err := in.execExprTmpl(n.tmpl, n.tcmd)
		if err != nil {
			return exprVal{}, err
		}
		return coerce(v)
	}
	v, err := in.evalScriptV(n.script)
	if err != nil {
		return exprVal{}, err
	}
	return coerce(v)
}

// exprQuotedNode is a "..." word; as in classic Tcl it is substituted
// even in skipped operands, and substitution errors propagate.
type exprQuotedNode struct{ w word }

func (n *exprQuotedNode) eval(ev *exprEvaluator) (exprVal, error) {
	s, err := ev.in.substWord(n.w)
	if err != nil {
		return exprVal{}, err
	}
	return strVal(s), nil
}

type exprUnaryNode struct {
	op byte
	x  exprNode
}

func (n *exprUnaryNode) eval(ev *exprEvaluator) (exprVal, error) {
	v, err := n.x.eval(ev)
	if err != nil {
		return exprVal{}, err
	}
	return applyUnary(n.op, v)
}

type exprBinaryNode struct {
	op   string
	l, r exprNode
}

func (n *exprBinaryNode) eval(ev *exprEvaluator) (exprVal, error) {
	l, err := n.l.eval(ev)
	if err != nil {
		return exprVal{}, err
	}
	r, err := n.r.eval(ev)
	if err != nil {
		return exprVal{}, err
	}
	if l.kind == vInt && r.kind == vInt {
		// A cached spelling on a vInt is always canonical (Value.s), so
		// the machine words can be combined directly.
		if v, ok := intBinaryFast(n.op, l.i, r.i); ok {
			return v, nil
		}
	}
	v, err := applyBinary(n.op, l, r)
	if err != nil {
		if ev.skipDepth > 0 {
			return intVal(0), nil
		}
		return exprVal{}, err
	}
	return v, nil
}

type exprAndOrNode struct {
	isAnd bool
	l, r  exprNode
}

func (n *exprAndOrNode) eval(ev *exprEvaluator) (exprVal, error) {
	l, err := n.l.eval(ev)
	if err != nil {
		return exprVal{}, err
	}
	lb, err := l.asBool()
	if err != nil {
		return exprVal{}, err
	}
	decided := (n.isAnd && !lb) || (!n.isAnd && lb)
	if decided {
		ev.skipDepth++
		_, err := n.r.eval(ev)
		ev.skipDepth--
		if err != nil {
			return exprVal{}, err
		}
		return intVal(b2i(lb)), nil
	}
	r, err := n.r.eval(ev)
	if err != nil {
		return exprVal{}, err
	}
	rb, err := r.asBool()
	if err != nil {
		return exprVal{}, err
	}
	if n.isAnd {
		return intVal(b2i(lb && rb)), nil
	}
	return intVal(b2i(lb || rb)), nil
}

// exprTernaryNode evaluates both branches — the untaken one in skip
// mode — exactly as a one-pass reader must, since it cannot skip over
// unparsed text.
type exprTernaryNode struct {
	cond, thenN, elseN exprNode
}

func (n *exprTernaryNode) eval(ev *exprEvaluator) (exprVal, error) {
	c, err := n.cond.eval(ev)
	if err != nil {
		return exprVal{}, err
	}
	b, err := c.asBool()
	if err != nil {
		return exprVal{}, err
	}
	if !b {
		ev.skipDepth++
	}
	tv, err := n.thenN.eval(ev)
	if !b {
		ev.skipDepth--
	}
	if err != nil {
		return exprVal{}, err
	}
	if b {
		ev.skipDepth++
	}
	fv, err := n.elseN.eval(ev)
	if b {
		ev.skipDepth--
	}
	if err != nil {
		return exprVal{}, err
	}
	if b {
		return tv, nil
	}
	return fv, nil
}

type exprFuncNode struct {
	name string
	args []exprNode
}

func (n *exprFuncNode) eval(ev *exprEvaluator) (exprVal, error) {
	args := make([]exprVal, len(n.args))
	for i, a := range n.args {
		v, err := a.eval(ev)
		if err != nil {
			return exprVal{}, err
		}
		args[i] = v
	}
	return applyFunc(n.name, args)
}

// applyUnary applies a unary operator; shared with the test oracle
// (expr_oracle_test.go) so behavior cannot drift.
func applyUnary(op byte, v exprVal) (exprVal, error) {
	switch op {
	case '-':
		v, err := coerce(v)
		if err != nil {
			return exprVal{}, err
		}
		switch v.kind {
		case vInt:
			return intVal(-v.i), nil
		case vFloat:
			return floatVal(-v.f), nil
		}
		return exprVal{}, NewError("can't negate non-numeric %q", v.s)
	case '+':
		v, err := coerce(v)
		if err != nil {
			return exprVal{}, err
		}
		if !v.isNumeric() {
			return exprVal{}, NewError("can't use non-numeric string %q as operand of \"+\"", v.s)
		}
		return v, nil
	case '!':
		b, err := v.asBool()
		if err != nil {
			c, cerr := coerce(v)
			if cerr != nil {
				return exprVal{}, err
			}
			b2, err2 := c.asBool()
			if err2 != nil {
				return exprVal{}, err
			}
			b = b2
		}
		return intVal(b2i(!b)), nil
	case '~':
		v, err := coerce(v)
		if err != nil {
			return exprVal{}, err
		}
		if v.kind != vInt {
			return exprVal{}, NewError("can't use non-integer as operand of \"~\"")
		}
		return intVal(^v.i), nil
	}
	return exprVal{}, NewError("unknown unary operator %q", string(op))
}

// peekExprOp returns the operator starting at pos (which must already
// be past any whitespace), or "".
func peekExprOp(src string, pos int) string {
	if pos >= len(src) {
		return ""
	}
	if pos+2 <= len(src) {
		switch two := src[pos : pos+2]; two {
		case "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "**":
			return two
		}
	}
	switch c := src[pos]; c {
	case '+', '-', '*', '/', '%', '<', '>', '&', '|', '^', '?', ':', '!', '~':
		return string(c)
	}
	// word operators eq/ne (string comparison)
	if pos+2 <= len(src) {
		w := src[pos : pos+2]
		if (w == "eq" || w == "ne") && (pos+2 == len(src) || !isVarNameChar(src[pos+2])) {
			return w
		}
	}
	return ""
}

// scanExprNumber scans a numeric literal starting at pos and returns
// the value and the position after it.
func scanExprNumber(src string, pos int) (exprVal, int, error) {
	start := pos
	n := len(src)
	isFloat := false
	if pos+1 < n && src[pos] == '0' && (src[pos+1] == 'x' || src[pos+1] == 'X') {
		pos += 2
		for pos < n && hexVal(src[pos]) >= 0 {
			pos++
		}
		iv, err := strconv.ParseInt(src[start:pos], 0, 64)
		if err != nil {
			if isRangeErr(err) {
				return exprVal{}, pos, errIntTooLarge()
			}
			return exprVal{}, pos, NewError("bad hex number %q", src[start:pos])
		}
		return intVal(iv), pos, nil
	}
	for pos < n {
		c := src[pos]
		if c >= '0' && c <= '9' {
			pos++
			continue
		}
		if c == '.' {
			isFloat = true
			pos++
			continue
		}
		if c == 'e' || c == 'E' {
			// exponent
			if pos+1 < n && (src[pos+1] == '+' || src[pos+1] == '-' || (src[pos+1] >= '0' && src[pos+1] <= '9')) {
				isFloat = true
				pos++
				if src[pos] == '+' || src[pos] == '-' {
					pos++
				}
				continue
			}
			break
		}
		break
	}
	text := src[start:pos]
	if isFloat {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return exprVal{}, pos, NewError("bad number %q", text)
		}
		return floatVal(f), pos, nil
	}
	// Leading zero means octal in classic Tcl.
	if len(text) > 1 && text[0] == '0' {
		iv, err := strconv.ParseInt(text, 8, 64)
		if err == nil {
			return intVal(iv), pos, nil
		}
		if isRangeErr(err) {
			return exprVal{}, pos, errIntTooLarge()
		}
	}
	iv, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		if isRangeErr(err) {
			return exprVal{}, pos, errIntTooLarge()
		}
		return exprVal{}, pos, NewError("bad number %q", text)
	}
	return intVal(iv), pos, nil
}

// exprCompiler builds an exprNode tree from source without touching
// the interpreter. It compiles every source: each parse error becomes
// an exprErrNode, and the first structural one halts compilation.
type exprCompiler struct {
	src string
	pos int
	// halted is the structural error node that stopped compilation;
	// nil while the source still parses. Each construct that is open
	// when it is set wraps what it parsed so far and returns at once,
	// which leaves the error node as the last node evaluation reaches.
	halted *exprErrNode
	// first is the first error node compiled, a bareword or the halt.
	first *exprErrNode
}

func (c *exprCompiler) atEnd() bool { return c.pos >= len(c.src) }

func (c *exprCompiler) skipSpace() {
	for !c.atEnd() {
		ch := c.src[c.pos]
		if ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r' {
			c.pos++
			continue
		}
		return
	}
}

func (c *exprCompiler) peekOp() string {
	c.skipSpace()
	return peekExprOp(c.src, c.pos)
}

func (c *exprCompiler) consume(op string) {
	c.skipSpace()
	c.pos += len(op)
}

// exprErrNode raises an error the expression parser found. pre holds
// the operands the failing construct had parsed before the error; they
// run first, so their substitutions and errors surface before this one,
// in source order. The error itself is raised whatever the skip depth:
// a parse error is never short-circuited away.
type exprErrNode struct {
	pre []exprNode
	msg string
	// at is what CheckExpr reports for a structural error; nil for an
	// unknown bareword, which a substitution could legally produce at
	// run time and so is no static syntax error.
	at *ParseError
}

func (n *exprErrNode) eval(ev *exprEvaluator) (exprVal, error) {
	for _, p := range n.pre {
		if _, err := p.eval(ev); err != nil {
			return exprVal{}, err
		}
	}
	return exprVal{}, NewError("%s", n.msg)
}

// fail halts compilation at c.pos with err, after the nodes in pre.
// A *ParseError from a token parser is reported statically as is;
// every other error statically reads "syntax error in expression".
func (c *exprCompiler) fail(pre []exprNode, err error) exprNode {
	at, ok := err.(*ParseError)
	if !ok {
		at = &ParseError{Msg: "syntax error in expression", Off: c.pos}
	}
	return c.halt(&exprErrNode{pre: pre, msg: err.Error(), at: at})
}

func (c *exprCompiler) halt(n *exprErrNode) exprNode {
	c.halted = n
	if c.first == nil {
		c.first = n
	}
	return n
}

// compile compiles the whole source; trailing junk becomes a node that
// runs the parsed tree and then raises.
func (c *exprCompiler) compile() exprNode {
	n := c.compileTernary()
	if c.halted != nil {
		return n
	}
	c.skipSpace()
	if !c.atEnd() {
		return c.halt(&exprErrNode{
			pre: []exprNode{n},
			msg: fmt.Sprintf("syntax error in expression %q", c.src),
			at:  &ParseError{Msg: "extra tokens after expression", Off: c.pos},
		})
	}
	return n
}

// compileExprAST compiles a full expression. The tree it returns is
// always evaluable; err is the message of its first error node, or nil
// when the tree has none — only such a clean tree is a pure function
// of its operands that the VM may specialize.
func compileExprAST(src string) (exprNode, error) {
	c := &exprCompiler{src: src}
	n := c.compile()
	if c.first != nil {
		return n, errors.New(c.first.msg)
	}
	return n, nil
}

func (c *exprCompiler) compileTernary() exprNode {
	cond := c.compileBinary(0)
	if c.halted != nil || c.peekOp() != "?" {
		return cond
	}
	c.consume("?")
	thenN := c.compileTernary()
	if c.halted != nil {
		// The halt stands in for the unparsed else branch; evaluation
		// never reaches it, since thenN raises first.
		return &exprTernaryNode{cond: cond, thenN: thenN, elseN: c.halted}
	}
	if c.peekOp() != ":" {
		return &exprTernaryNode{cond: cond, thenN: thenN,
			elseN: c.fail(nil, NewError("missing : in ternary expression"))}
	}
	c.consume(":")
	return &exprTernaryNode{cond: cond, thenN: thenN, elseN: c.compileTernary()}
}

func (c *exprCompiler) compileBinary(level int) exprNode {
	if level >= len(precLevels) {
		return c.compileUnary()
	}
	left := c.compileBinary(level + 1)
	for c.halted == nil {
		op := c.peekOp()
		if !slices.Contains(precLevels[level], op) {
			break
		}
		c.consume(op)
		right := c.compileBinary(level + 1)
		if op == "&&" || op == "||" {
			left = &exprAndOrNode{isAnd: op == "&&", l: left, r: right}
		} else {
			left = foldBinary(op, left, right)
		}
	}
	return left
}

func (c *exprCompiler) compileUnary() exprNode {
	c.skipSpace()
	if c.atEnd() {
		return c.fail(nil, NewError("premature end of expression"))
	}
	switch op := c.src[c.pos]; op {
	case '-', '+', '!', '~':
		c.pos++
		return foldUnary(op, c.compileUnary())
	}
	return c.compilePrimary()
}

func (c *exprCompiler) compilePrimary() exprNode {
	ch := c.src[c.pos]
	switch {
	case ch == '(':
		c.pos++
		n := c.compileTernary()
		if c.halted != nil {
			return n
		}
		c.skipSpace()
		if c.atEnd() || c.src[c.pos] != ')' {
			return c.fail([]exprNode{n}, NewError("missing close parenthesis"))
		}
		c.pos++
		return n
	case ch == '$':
		p := &parser{src: c.src, pos: c.pos}
		t, err := p.parseVarToken()
		if err != nil {
			return c.fail(nil, err)
		}
		c.pos = p.pos
		if t.hasIdx {
			compileWordTokens(t.index)
		}
		return &exprVarNode{tok: t}
	case ch == '[':
		p := &parser{src: c.src, pos: c.pos}
		t, err := p.parseCommandToken()
		if err != nil {
			return c.fail(nil, err)
		}
		c.pos = p.pos
		return &exprCmdNode{script: compileScript(t.text)}
	case ch == '"':
		p := &parser{src: c.src, pos: c.pos}
		w, err := p.parseQuotedWordForExpr()
		if err != nil {
			return c.fail(nil, err)
		}
		c.pos = p.pos
		compileWordTokens(w.tokens)
		if len(w.tokens) == 0 {
			return &exprLit{v: strVal("")}
		}
		if len(w.tokens) == 1 && w.tokens[0].kind == tokText {
			return &exprLit{v: strVal(w.tokens[0].text)}
		}
		return &exprQuotedNode{w: w}
	case ch == '{':
		p := &parser{src: c.src, pos: c.pos}
		s, err := p.parseBracedWordForExpr()
		if err != nil {
			return c.fail(nil, err)
		}
		c.pos = p.pos
		return &exprLit{v: strVal(s)}
	case ch >= '0' && ch <= '9' || ch == '.':
		v, np, err := scanExprNumber(c.src, c.pos)
		if err != nil {
			return c.fail(nil, err)
		}
		c.pos = np
		return &exprLit{v: v}
	}
	start := c.pos
	for !c.atEnd() && isVarNameChar(c.src[c.pos]) {
		c.pos++
	}
	if c.pos == start {
		return c.fail(nil, NewError("syntax error in expression near %q", c.src[c.pos:]))
	}
	name := c.src[start:c.pos]
	c.skipSpace()
	if !c.atEnd() && c.src[c.pos] == '(' {
		return c.compileFunc(name)
	}
	switch strings.ToLower(name) {
	case "true", "yes", "on":
		return &exprLit{v: intVal(1)}
	case "false", "no", "off":
		return &exprLit{v: intVal(0)}
	case "inf":
		return &exprLit{v: floatVal(math.Inf(1))}
	case "nan":
		return &exprLit{v: floatVal(math.NaN())}
	}
	// An unknown bareword raises when evaluation reaches it, but does
	// not halt compilation: CheckExpr still sees the syntax after it.
	n := &exprErrNode{msg: fmt.Sprintf("unknown function or bareword %q in expression", name)}
	if c.first == nil {
		c.first = n
	}
	return n
}

// CheckExpr statically checks the syntax of an expression source. It
// reports the structural error that halts compilation — unbalanced
// parentheses, a missing operand, a ? without its :, trailing junk, a
// malformed number or token — as a *ParseError whose offset points at
// the first unparsable character. Unknown barewords pass: at run time
// they may be legal strings produced by substitution.
func CheckExpr(src string) error {
	c := &exprCompiler{src: src}
	c.compile()
	if c.halted != nil {
		return c.halted.at
	}
	return nil
}

func (c *exprCompiler) compileFunc(name string) exprNode {
	c.pos++ // consume (
	c.skipSpace()
	if !c.atEnd() && c.src[c.pos] == ')' {
		c.pos++
		return foldFunc(name, nil)
	}
	var args []exprNode
	for {
		args = append(args, c.compileTernary())
		if c.halted != nil {
			return &exprFuncNode{name: name, args: args}
		}
		c.skipSpace()
		if c.atEnd() {
			return c.fail(args, NewError("missing ) in function call"))
		}
		switch c.src[c.pos] {
		case ',':
			c.pos++
			continue
		case ')':
			c.pos++
			return foldFunc(name, args)
		}
		return c.fail(args, NewError("syntax error in function arguments"))
	}
}

// foldUnary, foldBinary and foldFunc fold constant subtrees at compile
// time. Folding only happens when application succeeds — a folding
// error (divide by zero, non-numeric operand) keeps the node so the
// error is raised (or skipped) at evaluation time like before.
func foldUnary(op byte, x exprNode) exprNode {
	if lit, ok := x.(*exprLit); ok {
		if v, err := applyUnary(op, lit.v); err == nil {
			return &exprLit{v: v}
		}
	}
	return &exprUnaryNode{op: op, x: x}
}

func foldBinary(op string, l, r exprNode) exprNode {
	ll, lok := l.(*exprLit)
	rr, rok := r.(*exprLit)
	if lok && rok {
		if v, err := applyBinary(op, ll.v, rr.v); err == nil {
			return &exprLit{v: v}
		}
	}
	return &exprBinaryNode{op: op, l: l, r: r}
}

func foldFunc(name string, args []exprNode) exprNode {
	vals := make([]exprVal, len(args))
	for i, a := range args {
		lit, ok := a.(*exprLit)
		if !ok {
			return &exprFuncNode{name: name, args: args}
		}
		vals[i] = lit.v
	}
	if v, err := applyFunc(name, vals); err == nil {
		return &exprLit{v: v}
	}
	return &exprFuncNode{name: name, args: args}
}

// compileExprCached returns the compiled tree for s, interned in the
// per-interpreter expression cache.
func (in *Interp) compileExprCached(s string) exprNode {
	if in.exprCache == nil || len(s) > maxCachedSrcLen {
		n, _ := compileExprAST(s)
		return n
	}
	if v, ok := in.exprCache.get(s); ok {
		if m := in.obs; m != nil {
			m.ExprCacheHits.Inc()
		}
		return v.(exprNode)
	}
	if m := in.obs; m != nil {
		m.ExprCacheMisses.Inc()
	}
	n, _ := compileExprAST(s)
	in.exprCache.put(s, n)
	return n
}
