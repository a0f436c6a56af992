package tcl

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ExprEval evaluates a Tcl expression string. Variable ($name) and
// command ([cmd]) references inside the expression are resolved against
// the interpreter, which is what makes braced expr arguments work:
// expr {$i < 10}.
//
// Expressions compile once to an AST cached per source string. Every
// source compiles: a malformed one yields a tree whose error nodes
// raise the parse error at the point of evaluation where it occurs
// (expr_compile.go).
func (in *Interp) ExprEval(s string) (string, error) {
	ev := in.acquireEval()
	v, err := in.compileExprCached(s).eval(ev)
	in.releaseEval(ev)
	if err != nil {
		return "", err
	}
	return v.String(), nil
}

// ExprBool evaluates an expression and interprets the result as a
// boolean (used by if, while, for). The truth value is read straight
// off the typed result, skipping a format-to-string/ParseBool round
// trip (asBool and ParseBool agree on every value either can produce).
func (in *Interp) ExprBool(s string) (bool, error) {
	ev := in.acquireEval()
	v, err := in.compileExprCached(s).eval(ev)
	in.releaseEval(ev)
	if err != nil {
		return false, err
	}
	return v.asBool()
}

// ParseBool interprets a Tcl boolean string: numbers (non-zero = true)
// or the words true/false/yes/no/on/off.
func ParseBool(s string) (bool, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	switch t {
	case "1", "true", "yes", "on", "t", "y":
		return true, nil
	case "0", "false", "no", "off", "f", "n":
		return false, nil
	}
	if iv, err := strconv.ParseInt(t, 0, 64); err == nil {
		return iv != 0, nil
	} else if isRangeErr(err) {
		return false, errIntTooLarge()
	}
	if fv, err := strconv.ParseFloat(t, 64); err == nil {
		return fv != 0, nil
	}
	return false, NewError("expected boolean value but got %q", s)
}

// binary operator precedence levels, low to high.
var precLevels = [][]string{
	{"||"},
	{"&&"},
	{"|"},
	{"^"},
	{"&"},
	{"==", "!=", "eq", "ne"},
	{"<", ">", "<=", ">="},
	{"<<", ">>"},
	{"+", "-"},
	{"*", "/", "%"},
	{"**"},
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// intBinaryFast evaluates the common integer operators without
// applyBinary's string-keyed switch and operand re-coercion. It
// reports ok=false for everything it does not handle — the uncommon
// operators (eq, ne, **) and every error case (divide by zero) — which
// then takes the applyBinary path, keeping error surfaces identical.
// The arithmetic bodies are copied from applyBinary verbatim.
func intBinaryFast(op string, a, b int64) (exprVal, bool) {
	if len(op) == 1 {
		switch op[0] {
		case '+':
			return intVal(a + b), true
		case '-':
			return intVal(a - b), true
		case '*':
			return intVal(a * b), true
		case '/':
			if b == 0 {
				return exprVal{}, false
			}
			q := a / b
			if (a%b != 0) && ((a < 0) != (b < 0)) {
				q--
			}
			return intVal(q), true
		case '%':
			if b == 0 {
				return exprVal{}, false
			}
			m := a % b
			if m != 0 && ((m < 0) != (b < 0)) {
				m += b
			}
			return intVal(m), true
		case '<':
			return intVal(b2i(a < b)), true
		case '>':
			return intVal(b2i(a > b)), true
		case '&':
			return intVal(a & b), true
		case '|':
			return intVal(a | b), true
		case '^':
			return intVal(a ^ b), true
		}
		return exprVal{}, false
	}
	switch op {
	case "==":
		return intVal(b2i(a == b)), true
	case "!=":
		return intVal(b2i(a != b)), true
	case "<=":
		return intVal(b2i(a <= b)), true
	case ">=":
		return intVal(b2i(a >= b)), true
	case "<<":
		return intVal(a << uint(b)), true
	case ">>":
		return intVal(a >> uint(b)), true
	}
	return exprVal{}, false
}

func applyBinary(op string, l, r exprVal) (exprVal, error) {
	switch op {
	case "eq":
		return intVal(b2i(l.String() == r.String())), nil
	case "ne":
		return intVal(b2i(l.String() != r.String())), nil
	}
	lc, err := coerce(l)
	if err != nil {
		return exprVal{}, err
	}
	rc, err := coerce(r)
	if err != nil {
		return exprVal{}, err
	}
	// String comparison when either side is non-numeric.
	if !lc.isNumeric() || !rc.isNumeric() {
		ls, rs := l.String(), r.String()
		switch op {
		case "==":
			return intVal(b2i(ls == rs)), nil
		case "!=":
			return intVal(b2i(ls != rs)), nil
		case "<":
			return intVal(b2i(ls < rs)), nil
		case ">":
			return intVal(b2i(ls > rs)), nil
		case "<=":
			return intVal(b2i(ls <= rs)), nil
		case ">=":
			return intVal(b2i(ls >= rs)), nil
		default:
			return exprVal{}, NewError("can't use non-numeric string %q as operand of %q", nonNumericOf(lc, rc), op)
		}
	}
	bothInt := lc.kind == vInt && rc.kind == vInt
	intOnly := func() error {
		if !bothInt {
			return NewError("can't use floating-point value as operand of %q", op)
		}
		return nil
	}
	switch op {
	case "+":
		if bothInt {
			return intVal(lc.i + rc.i), nil
		}
		return floatVal(lc.asFloat() + rc.asFloat()), nil
	case "-":
		if bothInt {
			return intVal(lc.i - rc.i), nil
		}
		return floatVal(lc.asFloat() - rc.asFloat()), nil
	case "*":
		if bothInt {
			return intVal(lc.i * rc.i), nil
		}
		return floatVal(lc.asFloat() * rc.asFloat()), nil
	case "/":
		if bothInt {
			if rc.i == 0 {
				return exprVal{}, NewError("divide by zero")
			}
			// Tcl integer division truncates toward negative infinity.
			q := lc.i / rc.i
			if (lc.i%rc.i != 0) && ((lc.i < 0) != (rc.i < 0)) {
				q--
			}
			return intVal(q), nil
		}
		if rc.asFloat() == 0 {
			return exprVal{}, NewError("divide by zero")
		}
		return floatVal(lc.asFloat() / rc.asFloat()), nil
	case "%":
		if err := intOnly(); err != nil {
			return exprVal{}, err
		}
		if rc.i == 0 {
			return exprVal{}, NewError("divide by zero")
		}
		m := lc.i % rc.i
		if m != 0 && ((m < 0) != (rc.i < 0)) {
			m += rc.i
		}
		return intVal(m), nil
	case "**":
		if bothInt && rc.i >= 0 {
			return intVal(intPow(lc.i, rc.i)), nil
		}
		return floatVal(math.Pow(lc.asFloat(), rc.asFloat())), nil
	case "<<":
		if err := intOnly(); err != nil {
			return exprVal{}, err
		}
		return intVal(lc.i << uint(rc.i)), nil
	case ">>":
		if err := intOnly(); err != nil {
			return exprVal{}, err
		}
		return intVal(lc.i >> uint(rc.i)), nil
	case "&":
		if err := intOnly(); err != nil {
			return exprVal{}, err
		}
		return intVal(lc.i & rc.i), nil
	case "|":
		if err := intOnly(); err != nil {
			return exprVal{}, err
		}
		return intVal(lc.i | rc.i), nil
	case "^":
		if err := intOnly(); err != nil {
			return exprVal{}, err
		}
		return intVal(lc.i ^ rc.i), nil
	case "==":
		if bothInt {
			return intVal(b2i(lc.i == rc.i)), nil
		}
		return intVal(b2i(lc.asFloat() == rc.asFloat())), nil
	case "!=":
		if bothInt {
			return intVal(b2i(lc.i != rc.i)), nil
		}
		return intVal(b2i(lc.asFloat() != rc.asFloat())), nil
	case "<":
		if bothInt {
			return intVal(b2i(lc.i < rc.i)), nil
		}
		return intVal(b2i(lc.asFloat() < rc.asFloat())), nil
	case ">":
		if bothInt {
			return intVal(b2i(lc.i > rc.i)), nil
		}
		return intVal(b2i(lc.asFloat() > rc.asFloat())), nil
	case "<=":
		if bothInt {
			return intVal(b2i(lc.i <= rc.i)), nil
		}
		return intVal(b2i(lc.asFloat() <= rc.asFloat())), nil
	case ">=":
		if bothInt {
			return intVal(b2i(lc.i >= rc.i)), nil
		}
		return intVal(b2i(lc.asFloat() >= rc.asFloat())), nil
	}
	return exprVal{}, NewError("unknown operator %q", op)
}

// intPow computes b**e for e >= 0 by square-and-multiply, in time
// logarithmic in e. Wrapping int64 multiplication is associative and
// commutative, so the result is bit-identical to e repeated
// multiplications, overflow included.
func intPow(b, e int64) int64 {
	res := int64(1)
	for e > 0 {
		if e&1 == 1 {
			res *= b
		}
		b *= b
		e >>= 1
	}
	return res
}

func nonNumericOf(l, r exprVal) string {
	if !l.isNumeric() {
		return l.s
	}
	return r.s
}

func applyFunc(name string, args []exprVal) (exprVal, error) {
	need := func(n int) error {
		if len(args) != n {
			return NewError("function %q requires %d argument(s)", name, n)
		}
		return nil
	}
	f1 := func(fn func(float64) float64) (exprVal, error) {
		if err := need(1); err != nil {
			return exprVal{}, err
		}
		a, err := coerce(args[0])
		if err != nil {
			return exprVal{}, err
		}
		if !a.isNumeric() {
			return exprVal{}, NewError("non-numeric argument to %q", name)
		}
		return floatVal(fn(a.asFloat())), nil
	}
	f2 := func(fn func(float64, float64) float64) (exprVal, error) {
		if err := need(2); err != nil {
			return exprVal{}, err
		}
		a, err := coerceFloat(args[0])
		if err != nil {
			return exprVal{}, err
		}
		b, err := coerceFloat(args[1])
		if err != nil {
			return exprVal{}, err
		}
		return floatVal(fn(a, b)), nil
	}
	// num1 coerces the single argument of int, round and double.
	num1 := func() (exprVal, error) {
		if err := need(1); err != nil {
			return exprVal{}, err
		}
		a, err := coerce(args[0])
		if err != nil {
			return exprVal{}, err
		}
		if !a.isNumeric() {
			return exprVal{}, NewError("non-numeric argument to %s()", name)
		}
		return a, nil
	}
	switch name {
	case "abs":
		if err := need(1); err != nil {
			return exprVal{}, err
		}
		a, err := coerce(args[0])
		if err != nil {
			return exprVal{}, err
		}
		if a.kind == vInt {
			if a.i < 0 {
				return intVal(-a.i), nil
			}
			return a, nil
		}
		return floatVal(math.Abs(a.asFloat())), nil
	case "int", "round", "double":
		a, err := num1()
		if err != nil {
			return exprVal{}, err
		}
		switch name {
		case "int":
			return intVal(int64(a.asFloat())), nil
		case "round":
			return intVal(int64(math.Round(a.asFloat()))), nil
		}
		return floatVal(a.asFloat()), nil
	case "sqrt":
		return f1(math.Sqrt)
	case "sin":
		return f1(math.Sin)
	case "cos":
		return f1(math.Cos)
	case "tan":
		return f1(math.Tan)
	case "asin":
		return f1(math.Asin)
	case "acos":
		return f1(math.Acos)
	case "atan":
		return f1(math.Atan)
	case "sinh":
		return f1(math.Sinh)
	case "cosh":
		return f1(math.Cosh)
	case "tanh":
		return f1(math.Tanh)
	case "exp":
		return f1(math.Exp)
	case "log":
		return f1(math.Log)
	case "log10":
		return f1(math.Log10)
	case "floor":
		return f1(math.Floor)
	case "ceil":
		return f1(math.Ceil)
	case "atan2":
		return f2(math.Atan2)
	case "pow":
		return f2(math.Pow)
	case "fmod":
		return f2(math.Mod)
	case "hypot":
		return f2(math.Hypot)
	case "min", "max":
		if len(args) == 0 {
			return exprVal{}, NewError("%s() requires at least one argument", name)
		}
		best, err := coerce(args[0])
		if err != nil {
			return exprVal{}, err
		}
		for _, a := range args[1:] {
			c, err := coerce(a)
			if err != nil {
				return exprVal{}, err
			}
			if (name == "min" && c.asFloat() < best.asFloat()) || (name == "max" && c.asFloat() > best.asFloat()) {
				best = c
			}
		}
		return best, nil
	}
	return exprVal{}, NewError("unknown math function %q", name)
}

// parseQuotedWordForExpr parses a quoted word but allows arbitrary
// following characters (expr context, not command context).
func (p *parser) parseQuotedWordForExpr() (word, error) {
	p.pos++ // consume opening quote
	var toks []token
	var lit strings.Builder
	flush := func() {
		if lit.Len() > 0 {
			toks = append(toks, token{kind: tokText, text: lit.String()})
			lit.Reset()
		}
	}
	for !p.atEnd() {
		c := p.peek()
		switch c {
		case '"':
			p.pos++
			flush()
			return word{tokens: toks}, nil
		case '\\':
			s, err := p.parseBackslash()
			if err != nil {
				return word{}, err
			}
			lit.WriteString(s)
		case '$':
			flush()
			t, err := p.parseVarToken()
			if err != nil {
				return word{}, err
			}
			toks = append(toks, t)
		case '[':
			flush()
			t, err := p.parseCommandToken()
			if err != nil {
				return word{}, err
			}
			toks = append(toks, t)
		default:
			lit.WriteByte(c)
			p.pos++
		}
	}
	return word{}, fmt.Errorf("missing closing quote")
}

// parseBracedWordForExpr parses {literal} in expr context, returning the
// raw content.
func (p *parser) parseBracedWordForExpr() (string, error) {
	depth := 0
	i := p.pos
	start := p.pos + 1
	for i < len(p.src) {
		switch p.src[i] {
		case '\\':
			i++
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				content := p.src[start:i]
				p.pos = i + 1
				return content, nil
			}
		}
		i++
	}
	return "", fmt.Errorf("missing close-brace")
}
