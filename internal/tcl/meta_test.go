package tcl

import (
	"strings"
	"testing"
)

func TestLineCol(t *testing.T) {
	src := "abc\ndef\nghi"
	cases := []struct{ off, line, col int }{
		{0, 1, 1}, {2, 1, 3}, {4, 2, 1}, {8, 3, 1}, {10, 3, 3},
	}
	for _, c := range cases {
		if l, col := LineCol(src, c.off); l != c.line || col != c.col {
			t.Errorf("LineCol(%d) = %d:%d, want %d:%d", c.off, l, col, c.line, c.col)
		}
	}
}

func TestParseErrorPositions(t *testing.T) {
	s, err := Compile("set ok 1\necho {unbalanced")
	if err == nil || !strings.Contains(err.Error(), "line 2, column 6") {
		t.Errorf("Compile error = %v, want positioned parse error", err)
	}
	msg, line, col, ok := s.ParseErrorInfo()
	if !ok {
		t.Fatal("expected a recorded parse error")
	}
	if !strings.Contains(msg, "missing close-brace") {
		t.Errorf("msg = %q", msg)
	}
	if line != 2 || col != 6 {
		t.Errorf("parse error at %d:%d, want 2:6", line, col)
	}

	// The runtime error message carries the position suffix.
	in := New()
	if _, err := in.Eval("echo {unbalanced"); err == nil || !strings.Contains(err.Error(), "line 1, column 6") {
		t.Errorf("Eval error = %v, want line/column suffix", err)
	}
}

func TestInspectCommands(t *testing.T) {
	src := `set greeting hello
echo "$greeting [string length $greeting]" {braced}`
	s, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	cmds := s.Commands()
	if len(cmds) != 2 {
		t.Fatalf("got %d commands, want 2", len(cmds))
	}
	if cmds[0].Pos != 0 || cmds[1].Pos != 19 {
		t.Errorf("command positions %d,%d, want 0,19", cmds[0].Pos, cmds[1].Pos)
	}
	w0 := cmds[0].Words[0]
	if lit, ok := w0.Literal(); !ok || lit != "set" || w0.Pos != 0 {
		t.Errorf("word0 = %+v", w0)
	}
	quoted := cmds[1].Words[1]
	if quoted.Form != '"' {
		t.Errorf("quoted word form = %q", quoted.Form)
	}
	var varPart, cmdPart bool
	for _, p := range quoted.Parts {
		switch p.Kind {
		case PartVar:
			if p.Text == "greeting" {
				varPart = true
			}
		case PartCommand:
			cmdPart = true
			if p.Script == nil || len(p.Script.Commands()) != 1 {
				t.Error("nested command script not compiled")
			}
		}
	}
	if !varPart || !cmdPart {
		t.Errorf("quoted word parts missing var/command: %+v", quoted.Parts)
	}
	braced := cmds[1].Words[2]
	if braced.Form != '{' {
		t.Errorf("braced word form = %q", braced.Form)
	}
	if lit, ok := braced.Literal(); !ok || lit != "braced" {
		t.Errorf("braced literal = %q, %v", lit, ok)
	}
}

func TestCommandMetaRegistry(t *testing.T) {
	in := New()
	if _, ok := in.LookupMeta("set"); !ok {
		t.Error("builtin set has no metadata")
	}
	metas := in.CommandMetas()
	if len(metas) == 0 {
		t.Fatal("no metadata registered")
	}
	for i := 1; i < len(metas); i++ {
		if metas[i-1].Name >= metas[i].Name {
			t.Fatalf("CommandMetas not sorted: %q >= %q", metas[i-1].Name, metas[i].Name)
		}
	}

	// Usage-bearing metadata enforces arity centrally.
	in.RegisterCommand("pair", func(_ *Interp, argv []string) (string, error) {
		return argv[1] + ":" + argv[2], nil
	})
	in.SetCommandMeta(CommandMeta{
		Name: "pair", MinArgs: 2, MaxArgs: 2,
		Usage: "pair a b",
	})
	if out, err := in.Eval("pair x y"); err != nil || out != "x:y" {
		t.Errorf("pair x y = %q, %v", out, err)
	}
	_, err := in.Eval("pair x")
	if err == nil || !strings.Contains(err.Error(), `wrong # args: should be "pair a b"`) {
		t.Errorf("central arity error = %v", err)
	}

	// Unregistering removes the metadata too.
	in.UnregisterCommand("pair")
	if _, ok := in.LookupMeta("pair"); ok {
		t.Error("metadata survived UnregisterCommand")
	}
}

// TestCheckExpr pins CheckExpr's diagnostics per structural error
// kind — message and offset as they were before every source compiled
// to a tree — and that barewords still pass the static check.
func TestCheckExpr(t *testing.T) {
	const syntax = "syntax error in expression"
	cases := []struct {
		src, msg string // msg "" means the source passes
		off      int
	}{
		{"1 + 2 * (3 - 4)", "", 0},
		// Barewords are accepted leniently: at eval time they may be
		// produced by substitutions the static checker cannot see.
		{`red == "red"`, "", 0},
		{"2 + bogusword", "", 0},
		{"bogus", "", 0},
		// premature end
		{"1 +", syntax, 3},
		{"", syntax, 0},
		{"  ", syntax, 2},
		{"-", syntax, 1},
		// missing close parenthesis
		{"(1 + 2", syntax, 6},
		{"(1 + 2 3", syntax, 7},
		{"1 ? (2 : 3", syntax, 7},
		// ? without :
		{"1 ? 2", syntax, 5},
		{"1 ? 2 3", syntax, 6},
		// syntax error near ...
		{"1 + )", syntax, 4},
		{"@", syntax, 0},
		// function calls
		{"max(1, 2", syntax, 8},
		{"max(1 2)", syntax, 6},
		{"f(", syntax, 2},
		// trailing junk
		{"1 + 2 extra", "extra tokens after expression", 6},
		{"1 2", "extra tokens after expression", 2},
		{"(1) 2", "extra tokens after expression", 4},
		{"1 : 2", "extra tokens after expression", 2},
		{"1 + bogus 2", "extra tokens after expression", 10},
		// too-large and bad numbers
		{"9223372036854775808", syntax, 0},
		{"1 + 9223372036854775808", syntax, 4},
		{"0x1ffffffffffffffff", syntax, 0},
		{"1.2.3", syntax, 0},
		{"0x", syntax, 0},
		// bad $, [, " and { tokens
		{"${a", "missing close-brace for variable name", 0},
		{"$a(1", "missing )", 2},
		{"[incr n", "missing close-bracket", 0},
		{`"abc`, syntax, 0},
		{"{abc", syntax, 0},
		{`"[incr n"`, "missing close-bracket", 1},
		{`"${a"`, "missing close-brace for variable name", 1},
		{`$a + "x$\`, syntax, 5},
		// a bareword before a structural error does not mask it
		{"bogus + (1", syntax, 10},
	}
	for _, c := range cases {
		err := CheckExpr(c.src)
		if c.msg == "" {
			if err != nil {
				t.Errorf("CheckExpr(%q) = %v, want nil", c.src, err)
			}
			continue
		}
		pe, ok := err.(*ParseError)
		if !ok {
			t.Errorf("CheckExpr(%q) = %#v, want *ParseError", c.src, err)
			continue
		}
		if pe.Msg != c.msg || pe.Off != c.off {
			t.Errorf("CheckExpr(%q) = %q at %d, want %q at %d", c.src, pe.Msg, pe.Off, c.msg, c.off)
		}
	}
}

func TestBuiltinArityMessagesUnchanged(t *testing.T) {
	// Builtins keep their own arity checks (Usage is empty in the
	// builtin table); the registry must not change their messages.
	in := New()
	_, err := in.Eval("incr")
	if err == nil || !strings.Contains(err.Error(), "wrong # args") {
		t.Errorf("incr arity error = %v", err)
	}
}
