package tcl

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// This file keeps the classic Tcl-6-style expression evaluator, which
// parses and evaluates in one pass, as the test-only reference the
// compiled expression path (expr_compile.go) is checked against — the
// expression counterpart of the tree walker in walker_test.go. It is
// kept bug-for-bug stable: its error texts and the order in which its
// substitution side effects and errors interleave define the
// semantics the error nodes of the compiler reproduce.

// exprEvalClassic is the original evaluator that parses and evaluates
// in one pass.
func (in *Interp) exprEvalClassic(s string) (string, error) {
	e := &exprParser{in: in, src: s}
	v, err := e.parseTernary()
	if err != nil {
		return "", err
	}
	e.skipSpace()
	if !e.atEnd() {
		return "", NewError("syntax error in expression %q", s)
	}
	return v.String(), nil
}

type exprParser struct {
	in  *Interp
	src string
	pos int
	// skipDepth > 0 means we are parsing an operand that will not be
	// used (short-circuited && / || or untaken ternary branch); variable
	// and command substitution is suppressed and operator errors ignored.
	skipDepth int
}

func (e *exprParser) atEnd() bool { return e.pos >= len(e.src) }

func (e *exprParser) skipSpace() {
	for !e.atEnd() {
		c := e.src[e.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			e.pos++
			continue
		}
		return
	}
}

func (e *exprParser) peekOp() string {
	e.skipSpace()
	return peekExprOp(e.src, e.pos)
}

func (e *exprParser) consume(op string) {
	e.skipSpace()
	e.pos += len(op)
}

func (e *exprParser) parseTernary() (exprVal, error) {
	cond, err := e.parseBinary(0)
	if err != nil {
		return exprVal{}, err
	}
	if e.peekOp() == "?" {
		e.consume("?")
		b, err := cond.asBool()
		if err != nil {
			return exprVal{}, err
		}
		if !b {
			e.skipDepth++
		}
		thenV, err := e.parseTernary()
		if !b {
			e.skipDepth--
		}
		if err != nil {
			return exprVal{}, err
		}
		if e.peekOp() != ":" {
			return exprVal{}, NewError("missing : in ternary expression")
		}
		e.consume(":")
		if b {
			e.skipDepth++
		}
		elseV, err := e.parseTernary()
		if b {
			e.skipDepth--
		}
		if err != nil {
			return exprVal{}, err
		}
		if b {
			return thenV, nil
		}
		return elseV, nil
	}
	return cond, nil
}

func (e *exprParser) parseBinary(level int) (exprVal, error) {
	if level >= len(precLevels) {
		return e.parseUnary()
	}
	left, err := e.parseBinary(level + 1)
	if err != nil {
		return exprVal{}, err
	}
	for {
		op := e.peekOp()
		found := false
		for _, cand := range precLevels[level] {
			if op == cand {
				found = true
				break
			}
		}
		if !found {
			return left, nil
		}
		e.consume(op)
		// Short-circuit for && and ||: the right operand is parsed but
		// not evaluated when the left side already decides the result.
		if op == "&&" || op == "||" {
			lb, err := left.asBool()
			if err != nil {
				return exprVal{}, err
			}
			decided := (op == "&&" && !lb) || (op == "||" && lb)
			if decided {
				e.skipDepth++
			}
			right, err := e.parseBinary(level + 1)
			if decided {
				e.skipDepth--
				if err != nil {
					return exprVal{}, err
				}
				left = intVal(b2i(lb))
				continue
			}
			if err != nil {
				return exprVal{}, err
			}
			rb, err := right.asBool()
			if err != nil {
				return exprVal{}, err
			}
			var r bool
			if op == "&&" {
				r = lb && rb
			} else {
				r = lb || rb
			}
			left = intVal(b2i(r))
			continue
		}
		right, err := e.parseBinary(level + 1)
		if err != nil {
			return exprVal{}, err
		}
		left, err = applyBinary(op, left, right)
		if err != nil {
			if e.skipDepth > 0 {
				left = intVal(0)
				continue
			}
			return exprVal{}, err
		}
	}
}

func (e *exprParser) parseUnary() (exprVal, error) {
	e.skipSpace()
	if e.atEnd() {
		return exprVal{}, NewError("premature end of expression")
	}
	switch op := e.src[e.pos]; op {
	case '-', '+', '!', '~':
		e.pos++
		v, err := e.parseUnary()
		if err != nil {
			return exprVal{}, err
		}
		return applyUnary(op, v)
	}
	return e.parsePrimary()
}

func (e *exprParser) parsePrimary() (exprVal, error) {
	e.skipSpace()
	if e.atEnd() {
		return exprVal{}, NewError("premature end of expression")
	}
	c := e.src[e.pos]
	switch {
	case c == '(':
		e.pos++
		v, err := e.parseTernary()
		if err != nil {
			return exprVal{}, err
		}
		e.skipSpace()
		if e.atEnd() || e.src[e.pos] != ')' {
			return exprVal{}, NewError("missing close parenthesis")
		}
		e.pos++
		return v, nil
	case c == '$':
		p := &parser{src: e.src, pos: e.pos}
		t, err := p.parseVarToken()
		if err != nil {
			return exprVal{}, &Error{Code: CodeError, Value: err.Error()}
		}
		e.pos = p.pos
		if e.skipDepth > 0 {
			return intVal(0), nil
		}
		s, err := e.in.substToken(t)
		if err != nil {
			return exprVal{}, err
		}
		return coerce(strVal(s))
	case c == '[':
		p := &parser{src: e.src, pos: e.pos}
		t, err := p.parseCommandToken()
		if err != nil {
			return exprVal{}, &Error{Code: CodeError, Value: err.Error()}
		}
		e.pos = p.pos
		if e.skipDepth > 0 {
			return intVal(0), nil
		}
		s, err := e.in.Eval(t.text)
		if err != nil {
			return exprVal{}, err
		}
		return coerce(strVal(s))
	case c == '"':
		p := &parser{src: e.src, pos: e.pos}
		w, err := p.parseQuotedWordForExpr()
		if err != nil {
			return exprVal{}, &Error{Code: CodeError, Value: err.Error()}
		}
		e.pos = p.pos
		s, err := e.in.substWord(w)
		if err != nil {
			return exprVal{}, err
		}
		return strVal(s), nil
	case c == '{':
		p := &parser{src: e.src, pos: e.pos}
		w, err := p.parseBracedWordForExpr()
		if err != nil {
			return exprVal{}, &Error{Code: CodeError, Value: err.Error()}
		}
		e.pos = p.pos
		return strVal(w), nil
	case c >= '0' && c <= '9' || c == '.':
		return e.parseNumber()
	default:
		// Function call or bareword boolean.
		start := e.pos
		for !e.atEnd() && (isVarNameChar(e.src[e.pos])) {
			e.pos++
		}
		if e.pos == start {
			return exprVal{}, NewError("syntax error in expression near %q", e.src[e.pos:])
		}
		name := e.src[start:e.pos]
		e.skipSpace()
		if !e.atEnd() && e.src[e.pos] == '(' {
			return e.parseFuncCall(name)
		}
		switch strings.ToLower(name) {
		case "true", "yes", "on":
			return intVal(1), nil
		case "false", "no", "off":
			return intVal(0), nil
		case "inf":
			return floatVal(math.Inf(1)), nil
		case "nan":
			return floatVal(math.NaN()), nil
		}
		return exprVal{}, NewError("unknown function or bareword %q in expression", name)
	}
}

func (e *exprParser) parseNumber() (exprVal, error) {
	v, np, err := scanExprNumber(e.src, e.pos)
	e.pos = np
	return v, err
}

func (e *exprParser) parseFuncCall(name string) (exprVal, error) {
	e.pos++ // consume (
	var args []exprVal
	e.skipSpace()
	if !e.atEnd() && e.src[e.pos] == ')' {
		e.pos++
	} else {
		for {
			v, err := e.parseTernary()
			if err != nil {
				return exprVal{}, err
			}
			args = append(args, v)
			e.skipSpace()
			if e.atEnd() {
				return exprVal{}, NewError("missing ) in function call")
			}
			if e.src[e.pos] == ',' {
				e.pos++
				continue
			}
			if e.src[e.pos] == ')' {
				e.pos++
				break
			}
			return exprVal{}, NewError("syntax error in function arguments")
		}
	}
	return applyFunc(name, args)
}

// exprOraclePrelude primes every interpreter the expression oracle
// runs: an integer, a non-numeric string and the probe counter.
const exprOraclePrelude = "set a 1; set b x; set n 0"

// exprOracleInterp returns a fresh interpreter for the expression
// differential. With classic set, expr is rebound to the one-pass
// oracle, so every expr — nested ones in [...] included — evaluates
// classically.
func exprOracleInterp(classic bool) *Interp {
	in := New()
	if classic {
		in.RegisterCommand("expr", func(in *Interp, argv []string) (string, error) {
			if len(argv) < 2 {
				return "", arityError("expr", "arg ?arg ...?")
			}
			return in.exprEvalClassic(strings.Join(argv[1:], " "))
		})
	}
	if _, err := in.Eval(exprOraclePrelude); err != nil {
		panic(err)
	}
	return in
}

// exprOutcome is everything an evaluation difference could show in:
// the result, the error text, the errorInfo traceback and the global
// variables (the probes' side-effect log: n, log and friends).
type exprOutcome struct {
	result, err, errorInfo, vars string
}

func exprOutcomeOf(in *Interp, res string, err error) exprOutcome {
	o := exprOutcome{result: res, vars: globalVarDump(in)}
	if err != nil {
		o.err = err.Error()
		o.errorInfo = in.ErrorInfo()
	}
	return o
}

// exprSpellings are the scripts an expression source runs under: from
// a variable (an expr template, which bails to join-and-parse for a
// value that is not a number) and, when the source survives bracing,
// as the braced literal the VM compiles to opExpr.
func exprSpellings(src string) []string {
	s := []string{"expr $src"}
	if braceSafe(src) {
		s = append(s, "expr {"+src+"}")
	}
	return s
}

// braceSafe reports whether src can sit verbatim inside a braced word.
func braceSafe(src string) bool {
	depth := 0
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '\\':
			return false
		case '{':
			depth++
		case '}':
			depth--
			if depth < 0 {
				return false
			}
		}
	}
	return depth == 0
}

// exprOracleRun evaluates src through one spelling on a fresh
// interpreter, compiled or classic.
func exprOracleRun(classic bool, script, src string, setup func(*Interp)) exprOutcome {
	in := exprOracleInterp(classic)
	if setup != nil {
		setup(in)
	}
	if err := in.SetGlobalVar("src", src); err != nil {
		panic(err)
	}
	res, err := in.Eval(script)
	return exprOutcomeOf(in, res, err)
}

// exprBoolRun evaluates src as a condition, the way if, while and for
// do: compiled through ExprBool, or classically through the one-pass
// evaluator and ParseBool.
func exprBoolRun(classic bool, src string, setup func(*Interp)) exprOutcome {
	in := exprOracleInterp(classic)
	if setup != nil {
		setup(in)
	}
	var b bool
	var err error
	if classic {
		var r string
		if r, err = in.exprEvalClassic(src); err == nil {
			b, err = ParseBool(r)
		}
	} else {
		b, err = in.ExprBool(src)
	}
	res := ""
	if err == nil {
		res = strconv.FormatBool(b)
	}
	return exprOutcomeOf(in, res, err)
}

// exprOracleDiff compares the compiled path with the classic oracle
// on src and returns a description of every divergence.
func exprOracleDiff(src string, setup func(*Interp)) []string {
	var diffs []string
	cmp := func(what string, c, o exprOutcome) {
		if c != o {
			diffs = append(diffs, fmt.Sprintf("%s:\ncompiled: %+v\nclassic:  %+v", what, c, o))
		}
	}
	for _, script := range exprSpellings(src) {
		cmp(script, exprOracleRun(false, script, src, setup), exprOracleRun(true, script, src, setup))
	}
	cmp("ExprBool", exprBoolRun(false, src, setup), exprBoolRun(true, src, setup))
	return diffs
}

// exprErrorFragments holds one or more sources for every error the
// expression parser raises, most with a probe inside.
var exprErrorFragments = []string{
	// premature end of expression
	"1 +", "-", "", "[incr n] *",
	// missing close parenthesis
	"(1 + [incr n]", "([lappend log p] 2",
	// missing : in ternary expression
	"1 ? [incr n]", "0 ? [incr n] 3",
	// syntax error in expression near ...
	")", "@", ",", "1 + )",
	// unknown function or bareword
	"bogus", "[incr n] + bogusword",
	// missing ) in function call; syntax error in function arguments
	"max([incr n], 2", "min(1, ", "max(1 [incr n])", "abs(",
	// trailing junk
	"1 2", "[incr n] [incr n]", " ==  12  || 09", "1 : 2",
	// integer too large, bad numbers
	"9223372036854775808", "0x1ffffffffffffffff", "0777777777777777777777777",
	"1.2.3", "0x", "..",
	// bad $, [ and " tokens
	"${a", "$a(1", "[incr n", "\"abc", "\"[incr n\"", "\"$a [lappend log q]",
	// a bad { token (only ever through the variable spelling)
	"{abc",
}

// exprProbeContexts place a fragment before, inside and after probes,
// in evaluated and in skipped (&&, ||, ?:) operands.
var exprProbeContexts = []string{
	"%s",
	"[incr n] + %s",
	"%s + [incr n]",
	"[lappend log k1] * (%s)",
	"(%s) || [incr n]",
	"0 && (%s)",
	"1 || %s",
	"0 && [incr n] + %s",
	"1 || [lappend log k2] && %s",
	"0 ? %s : [incr n]",
	"1 ? [incr n] : %s",
	"[incr n] ? %s : [lappend log k3]",
	"0 ? [lappend log k4] : %s",
	"max([incr n], %s)",
	"-(%s)",
	"!%s",
	"$a + %s",
	"$b && %s",
	"\"$a[incr n]\" eq %s",
	"[incr n] - [incr n] * %s",
	"%s ? [incr n] : [lappend log k5]",
}

// exprValidCorpus covers evaluation (not parse) errors and clean
// expressions with probes, so the oracle also pins the order in which
// operator, substitution and function errors surface.
var exprValidCorpus = []string{
	"$a + $b", "$b + 1", "1 / 0", "0 && 1 / 0", "$c", "0 && $c",
	"2 ** 9223372036854775807", "(-3) ** 5", "2 ** -1",
	"[error boom] + 1", "0 && [error never]", "\"$c\"", "0 && \"$c\"",
	"$ + 1", "$ eq \"$\"", "int(1.5) + round(2.5) + abs(-3)", "unknownfunc([incr n])",
	"1 ? 2 : 3", "0 ? [incr n] : [lappend log e]", "true && yes", "inf > 1",
	"$b ? 1 : 2", "[incr n] && [incr n] || [incr n]", "{abc} eq \"abc\"",
	"sqrt(-1) + [incr n]", "max()", "double($b)", "[lappend log x] + 1",
	"09 + [incr n]", "{ 12 } + 1", "\"1\" + \"2\"", "~1.5", "!$b", "-$b",
	"$a(1)", "[set a] == 1 ? \"yes\" : [incr n]", "(1) ? (2) : (3)",
}

// exprOracleCorpus assembles the differential corpus: every error
// fragment in every probe context, the valid corpus, and the operand
// and expression shapes of the randomized script generator.
func exprOracleCorpus() []string {
	var corpus []string
	for _, frag := range exprErrorFragments {
		for _, ctx := range exprProbeContexts {
			corpus = append(corpus, fmt.Sprintf(ctx, frag))
		}
	}
	corpus = append(corpus, exprValidCorpus...)
	g := &scriptGen{r: rand.New(rand.NewSource(0xe4b2))}
	for i := 0; i < 120; i++ {
		corpus = append(corpus, g.operand(), g.exprSrc())
	}
	return corpus
}

// TestExprOracleDifferential checks the compiled expression path
// against the classic one-pass oracle: result, error text, errorInfo
// and the probes' side-effect log must agree for every corpus source.
func TestExprOracleDifferential(t *testing.T) {
	for _, src := range exprOracleCorpus() {
		for _, d := range exprOracleDiff(src, nil) {
			t.Errorf("source %q: %s", src, d)
		}
	}
}

// TestExprOracleCorpusCoverage proves the corpus reaches every error
// the expression parser raises.
func TestExprOracleCorpusCoverage(t *testing.T) {
	kinds := []string{
		"premature end of expression",
		"missing close parenthesis",
		"missing : in ternary expression",
		"syntax error in expression near",
		"unknown function or bareword",
		"missing ) in function call",
		"syntax error in function arguments",
		"syntax error in expression \"",
		"integer value too large to represent",
		"bad number",
		"bad hex number",
		"missing close-brace for variable name",
		"missing )",
		"missing close-bracket",
		"missing closing quote",
		"missing close-brace",
	}
	seen := map[string]bool{}
	for _, src := range exprOracleCorpus() {
		_, err := exprOracleInterp(true).exprEvalClassic(src)
		if err == nil {
			continue
		}
		for _, k := range kinds {
			if strings.HasPrefix(err.Error(), k) {
				seen[k] = true
			}
		}
	}
	for _, k := range kinds {
		if !seen[k] {
			t.Errorf("no corpus source raises %q", k)
		}
	}
}

// exprFuzzCommands are the commands a fuzzed expression may reach
// through [...]: enough to leave a side-effect log and raise errors,
// nothing that loops, recurses, touches files or allocates without
// bound.
var exprFuzzCommands = map[string]bool{
	"set": true, "incr": true, "lappend": true, "expr": true, "error": true,
	"list": true, "llength": true, "lindex": true, "concat": true, "catch": true, "if": true,
}

// exprFuzzBudget bounds the commands one fuzzed evaluation may run: a
// source can recurse through its own text ([expr $src] twice over) and
// blow up exponentially long before the nesting limit stops it.
const exprFuzzBudget = 2000

// exprFuzzSetup restricts an interpreter to exprFuzzCommands, each
// invocation charged against exprFuzzBudget. Removing while and for
// also retires their specialized opcodes (the VM checks the binding of
// every specialized name), so no loop can run.
func exprFuzzSetup(in *Interp) {
	budget := exprFuzzBudget
	for name, fn := range in.commands {
		if !exprFuzzCommands[name] {
			in.UnregisterCommand(name)
			continue
		}
		in.RegisterCommand(name, func(in *Interp, argv []string) (string, error) {
			if budget--; budget < 0 {
				return "", NewError("command budget exhausted")
			}
			return fn(in, argv)
		})
	}
}

// FuzzExpr checks the expression compiler on arbitrary sources:
// nothing panics, the compiled path agrees with the classic oracle
// (result, error text, errorInfo, side-effect log), and a source
// CheckExpr rejects raises an error when evaluated. The budget wrappers
// rebind expr, so here every expr dispatches generically;
// TestExprOracleDifferential covers the specialized opcodes.
func FuzzExpr(f *testing.F) {
	for _, src := range exprOracleCorpus() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 512 {
			t.Skip("long sources add nothing the short ones miss")
		}
		for _, d := range exprOracleDiff(src, exprFuzzSetup) {
			t.Errorf("source %q: %s", src, d)
		}
		if CheckExpr(src) != nil {
			in := exprOracleInterp(false)
			exprFuzzSetup(in)
			if _, err := in.ExprEval(src); err == nil {
				t.Errorf("source %q: CheckExpr rejects it, but it evaluates", src)
			}
		}
	})
}
