package tcl

import "testing"

// differentialCorpus exercises the constructs whose bodies the compiled
// pipeline caches: procs, loops, conditionals, expressions, nested
// substitutions, completion codes and parse errors.
var differentialCorpus = []string{
	// Procs and recursion.
	"proc fac {n} {if {$n <= 1} {return 1}; expr $n * [fac [expr $n-1]]}\nfac 6",
	"proc sum {args} {set t 0; foreach a $args {incr t $a}; return $t}\nsum 1 2 3 4",
	"proc f {} {return a}; proc f {} {return b}; f",
	// Loops with break/continue.
	"set r {}; for {set i 0} {$i < 6} {incr i} {if {$i == 2} continue; if {$i == 5} break; lappend r $i}; set r",
	"set i 0; while {$i < 10} {incr i; if {$i > 4} break}; set i",
	"set out {}; foreach {a b} {1 2 3 4} {lappend out $b $a}; set out",
	// Expressions: operators, functions, ternary, short-circuit.
	"expr {3 + 4 * 2}",
	"expr {1 ? \"yes\" : \"no\"}",
	"expr {0 && [error never]}",
	"expr {min(3, 1, 2) + max(4, 5)}",
	"expr {\"abc\" == \"abc\" && 2 < 10}",
	"set x 7; expr {$x % 4}",
	// Nested substitutions.
	"set a 5; set b a; set $b 6; set a",
	"set k x; set m(x) hit; set m($k)",
	"set s \"len=[string length [list a b c]]\"",
	// String and list commands through procs.
	"proc rev {l} {set o {}; foreach e $l {set o [linsert $o 0 $e]}; set o}\nrev {1 2 3}",
	// Completion codes at top level.
	"proc early {} {foreach x {1 2 3} {return $x}}; early",
	// Runtime errors with traceback accumulation.
	"proc inner {} {error boom}; proc outer {} {inner}; outer",
	"set novar",
	"unknowncommand a b",
	"expr {1 +}",
	// Parse errors after a valid prefix.
	"set ran yes\nset x {oops",
	"puts first\nset x [unclosed",
	// Output-producing scripts.
	"foreach w {alpha beta gamma} {puts $w}",
	"proc p {} {puts inproc; return done}; p",
	// if/elseif/else chains.
	"set v 2; if {$v == 1} {set r one} elseif {$v == 2} {set r two} else {set r other}; set r",
	// An expression whose compiled tree holds an error node.
	"catch {expr {2 + bogusword}} msg; set msg",
}

// runDifferential evaluates src twice on the interpreter (the second
// pass hits the intern cache when enabled) and reports the results,
// error strings, accumulated output and final errorInfo.
func runDifferential(in *Interp, src string) (results, errs [2]string, out, errorInfo string) {
	for i := 0; i < 2; i++ {
		res, err := in.Eval(src)
		results[i] = res
		if err != nil {
			errs[i] = err.Error()
		}
	}
	out = in.Output()
	if info, err := in.Eval("set errorInfo"); err == nil {
		errorInfo = info
	}
	return
}

// TestDifferentialCachedVsUncached proves the compiled pipeline is
// semantically invisible: every snippet behaves identically with the
// intern caches enabled (compile once, evaluate twice) and disabled
// (fresh compile per evaluation).
func TestDifferentialCachedVsUncached(t *testing.T) {
	for _, src := range differentialCorpus {
		cached := New()
		uncached := New()
		uncached.SetScriptCacheSize(0)
		uncached.SetExprCacheSize(0)
		cr, ce, cout, cinfo := runDifferential(cached, src)
		ur, ue, uout, uinfo := runDifferential(uncached, src)
		if cr != ur {
			t.Errorf("script %q: results differ\ncached:   %q\nuncached: %q", src, cr, ur)
		}
		if ce != ue {
			t.Errorf("script %q: errors differ\ncached:   %q\nuncached: %q", src, ce, ue)
		}
		if cout != uout {
			t.Errorf("script %q: output differs\ncached:   %q\nuncached: %q", src, cout, uout)
		}
		if cinfo != uinfo {
			t.Errorf("script %q: errorInfo differs\ncached:\n%s\nuncached:\n%s", src, cinfo, uinfo)
		}
	}
}

// TestDifferentialEvalScriptVsEval proves that evaluating a
// pre-compiled Script matches evaluating its source, including the
// replay of parse errors after a valid prefix.
func TestDifferentialEvalScriptVsEval(t *testing.T) {
	for _, src := range differentialCorpus {
		s, _ := Compile(src)
		compiled := New()
		plain := New()
		plain.SetScriptCacheSize(0)
		plain.SetExprCacheSize(0)
		var cr, pr, ce, pe [2]string
		for i := 0; i < 2; i++ {
			res, err := compiled.EvalScript(s)
			cr[i] = res
			if err != nil {
				ce[i] = err.Error()
			}
			res, err = plain.Eval(src)
			pr[i] = res
			if err != nil {
				pe[i] = err.Error()
			}
		}
		if cr != pr || ce != pe {
			t.Errorf("script %q: EvalScript (%q, %q) != Eval (%q, %q)", src, cr, ce, pr, pe)
		}
		if cout, pout := compiled.Output(), plain.Output(); cout != pout {
			t.Errorf("script %q: output differs\nEvalScript: %q\nEval:       %q", src, cout, pout)
		}
	}
}
