package tcl

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// This file keeps the classic word parser, which builds every literal
// token one byte at a time, as the test-only reference the production
// parser's literal runs (parse.go) are checked against. Only the
// functions that assemble literal tokens are copied; braces, variable
// references, command substitutions and backslash escapes go through
// the shared parser methods.

// classicParser is the production parser with the classic word
// functions.
type classicParser struct{ parser }

func (p *classicParser) nextCommand() (*parsedCommand, error) {
	p.skipCommandSeparators()
	if p.atEnd() {
		return nil, nil
	}
	cmd := &parsedCommand{}
	for {
		if ended := p.skipWordSeparators(); ended {
			// Consume the terminator itself (if any).
			if !p.atEnd() && (p.peek() == '\n' || p.peek() == ';' || p.peek() == '\r') {
				p.pos++
			}
			break
		}
		w, err := p.parseWord()
		if err != nil {
			return nil, err
		}
		cmd.words = append(cmd.words, w)
	}
	if len(cmd.words) == 0 {
		return p.nextCommand()
	}
	return cmd, nil
}

func (p *classicParser) parseWord() (word, error) {
	start := p.pos
	var w word
	var err error
	var form byte
	switch p.peek() {
	case '{':
		form = '{'
		w, err = p.parseBracedWord()
	case '"':
		form = '"'
		w, err = p.parseQuotedWord()
	default:
		w, err = p.parseBareWord()
	}
	if err != nil {
		return word{}, err
	}
	w.pos = start
	w.form = form
	return w, nil
}

func (p *classicParser) parseQuotedWord() (word, error) {
	open := p.pos
	p.pos++ // consume opening quote
	var toks []token
	var lit strings.Builder
	litStart := p.pos
	flush := func() {
		if lit.Len() > 0 {
			toks = append(toks, token{kind: tokText, text: lit.String(), pos: litStart})
			lit.Reset()
		}
	}
	for !p.atEnd() {
		c := p.peek()
		switch c {
		case '"':
			p.pos++
			flush()
			if !p.atEnd() {
				c := p.peek()
				if c != ' ' && c != '\t' && c != '\n' && c != '\r' && c != ';' {
					return word{}, p.errAt(p.pos, "extra characters after close-quote")
				}
			}
			return word{tokens: toks}, nil
		case '\\':
			if lit.Len() == 0 {
				litStart = p.pos
			}
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
			litStart = p.pos
		case '[':
			flush()
			t, err := p.parseCommandToken()
			if err != nil {
				return word{}, err
			}
			toks = append(toks, t)
			litStart = p.pos
		default:
			if lit.Len() == 0 {
				litStart = p.pos
			}
			lit.WriteByte(c)
			p.pos++
		}
	}
	return word{}, p.errAt(open, "missing closing quote")
}

func (p *classicParser) parseBareWord() (word, error) {
	var toks []token
	var lit strings.Builder
	litStart := p.pos
	flush := func() {
		if lit.Len() > 0 {
			toks = append(toks, token{kind: tokText, text: lit.String(), pos: litStart})
			lit.Reset()
		}
	}
	for !p.atEnd() {
		c := p.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == ';':
			flush()
			return word{tokens: toks}, nil
		case c == '\\':
			if p.pos+1 < len(p.src) && p.src[p.pos+1] == '\n' {
				flush()
				return word{tokens: toks}, nil
			}
			if lit.Len() == 0 {
				litStart = p.pos
			}
			s, err := p.parseBackslash()
			if err != nil {
				return word{}, err
			}
			lit.WriteString(s)
		case c == '$':
			flush()
			t, err := p.parseVarToken()
			if err != nil {
				return word{}, err
			}
			toks = append(toks, t)
			litStart = p.pos
		case c == '[':
			flush()
			t, err := p.parseCommandToken()
			if err != nil {
				return word{}, err
			}
			toks = append(toks, t)
			litStart = p.pos
		case c == '{':
			// An open brace inside a bare word is literal in Tcl.
			if lit.Len() == 0 {
				litStart = p.pos
			}
			lit.WriteByte(c)
			p.pos++
		default:
			if lit.Len() == 0 {
				litStart = p.pos
			}
			lit.WriteByte(c)
			p.pos++
		}
	}
	flush()
	return word{tokens: toks}, nil
}

// parseAll parses src to the end or the first error, with the classic
// word functions or the production ones.
func parseAll(src string, classic bool) ([]*parsedCommand, error) {
	next := newParser(src).nextCommand
	if classic {
		next = (&classicParser{parser{src: src}}).nextCommand
	}
	var cmds []*parsedCommand
	for {
		cmd, err := next()
		if err != nil || cmd == nil {
			return cmds, err
		}
		cmds = append(cmds, cmd)
	}
}

// parseOracleDiff parses src with both parsers and describes the first
// difference: in the commands, words and tokens (kind, text, pos,
// index, form), in the parse error and its offset, or in the same
// comparison over every nested [script] either of them found.
func parseOracleDiff(src string) string {
	got, gotErr := parseAll(src, false)
	want, wantErr := parseAll(src, true)
	if !reflect.DeepEqual(gotErr, wantErr) {
		return fmt.Sprintf("error %#v, classic parser %#v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("commands\n%s\nclassic parser\n%s", dumpCommands(got), dumpCommands(want))
	}
	var nested []string
	var walk func([]token)
	walk = func(toks []token) {
		for _, t := range toks {
			switch t.kind {
			case tokCommand:
				nested = append(nested, t.text)
			case tokVar:
				walk(t.index)
			}
		}
	}
	for _, cmd := range got {
		for _, w := range cmd.words {
			walk(w.tokens)
		}
	}
	for _, sub := range nested {
		if d := parseOracleDiff(sub); d != "" {
			return fmt.Sprintf("in [%s]: %s", sub, d)
		}
	}
	return ""
}

func dumpCommands(cmds []*parsedCommand) string {
	var b strings.Builder
	for i, cmd := range cmds {
		for _, w := range cmd.words {
			fmt.Fprintf(&b, "  cmd %d word pos=%d form=%q: %+v\n", i, w.pos, w.form, w.tokens)
		}
	}
	return b.String()
}

// parseOracleCorpus is the parser's edge cases plus one line of each
// shape the line-path benchmark's backends send.
func parseOracleCorpus() []string {
	return []string{
		"",
		"set x 1",
		"set a \"b\\nc $x [list d e] f\"",
		"puts abc\\x41def\\u00e9ghi\\101\\\nnext",
		"a b\\\n c",
		"a \"b\"c",
		"a \"b",
		"a {b",
		"a {b}c",
		"a [b",
		"a $ b$ \"$\" c${x}d $y(a$b[c]\\)) e$",
		"a b{c}d \\{ \\",
		"a \"x\\\"y\"; # comment\n b;c",
		"x \"\\x\" \\u \\8 \\0123",
		"%a\"b$c",
		`sV bars data {403 772 65 391}`,
		`sV hist data "12 873 4 0\n99 1 2 3\n5 6 7 8\n1 2 3 4"`,
		`stripChartSample chart 1631`,
		`sV status label {r17 total 1631}`,
		`echo r17`,
		`sV input string {}`,
		`sendKeys input "36084\r"`,
		`sV info label thinking...`,
		`sV result label {2*2*3*3*7*11*13}`,
		`sV result label [set f [factor 1000003]]; echo $f`,
		`command b f fromVert l label {qzvk} callback {echo wxyz}`,
		`proc factor n {set r {}; for {set d 2} {$d * $d <= $n} {incr d} {while {$n % $d == 0} {lappend r $d; set n [expr {$n / $d}]}}; if {$n > 1} {lappend r $n}; return $r}`,
	}
}

func demoSources(tb testing.TB) []string {
	paths, err := filepath.Glob("../../demos/*.wafe")
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no demos found: %v", err)
	}
	var srcs []string
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		srcs = append(srcs, string(b))
	}
	return srcs
}

func TestParseOracle(t *testing.T) {
	for _, src := range append(parseOracleCorpus(), demoSources(t)...) {
		if d := parseOracleDiff(src); d != "" {
			t.Errorf("source %.60q: %s", src, d)
		}
	}
}

// TestParseLiteralRunNoCopy: a literal token written as one unescaped
// run of the source is that part of the source, not a copy.
func TestParseLiteralRunNoCopy(t *testing.T) {
	src := `sV hist data "1 2 3 4" {x} a[b]c "$v tail"`
	cmds, err := parseAll(src, false)
	if err != nil || len(cmds) != 1 {
		t.Fatalf("parse: %v, %d commands", err, len(cmds))
	}
	n := 0
	for _, w := range cmds[0].words {
		for _, tok := range w.tokens {
			if tok.kind != tokText {
				continue
			}
			n++
			if unsafe.StringData(tok.text) != unsafe.StringData(src[tok.pos:]) {
				t.Errorf("token %q at %d is a copy, not the source text", tok.text, tok.pos)
			}
		}
	}
	if n != 8 {
		t.Errorf("%d literal tokens, want 8", n)
	}
}

func FuzzParse(f *testing.F) {
	for _, src := range parseOracleCorpus() {
		f.Add(src)
	}
	for _, src := range demoSources(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if d := parseOracleDiff(src); d != "" {
			t.Errorf("source %q: %s", src, d)
		}
	})
}
