package tcl

import (
	"strconv"
	"strings"
)

// This file explains the bytecode compiler's specialization decisions
// for tooling (`wafecheck -why`). For every command of a script it
// reports whether the VM compiles it to a dedicated opcode or sends it
// through generic opInvoke dispatch, and — for generic sites — which
// rule of trySpecialize forced the fallback.
//
// Both the label and the reason are read off the actually-compiled
// Program (the same compileProgram the VM executes): the compiler
// records its reject reason on each generic command, so the report
// cannot drift from the engine.

// CmdExplanation is the specialization report for one command.
type CmdExplanation struct {
	// Pos is the byte offset of the command's first word in the
	// script's Source.
	Pos int
	// Name is the literal command name, "" when the name is dynamic.
	Name string
	// Op is the dispatch opcode the compiler emitted: one of "set",
	// "incr", "expr", "exprTmpl", "while", "for" (specialized) or
	// "invoke" (generic).
	Op string
	// Specialized reports whether the command bypasses the command
	// table via a dedicated opcode.
	Specialized bool
	// Reason explains, for generic sites, which rule forced the
	// fallback; "" for specialized sites.
	Reason string
}

// dispatchOpName maps a dispatch opcode to its mnemonic.
func dispatchOpName(o op) string {
	switch o {
	case opSet:
		return "set"
	case opIncr:
		return "incr"
	case opExpr:
		return "expr"
	case opExprTmpl:
		return "exprTmpl"
	case opWhile:
		return "while"
	case opFor:
		return "for"
	default:
		return "invoke"
	}
}

// ExplainScript compiles s with a scratch interpreter (whose builtins
// are untouched, so specialization is enabled exactly as in a fresh
// session) and explains every command. Commands inside nested scripts
// are not traversed; callers recurse structurally (the analysis
// package does, with position mapping).
func ExplainScript(s *Script) []CmdExplanation {
	if s == nil {
		return nil
	}
	in := New()
	p := in.compileProgram(s)
	out := make([]CmdExplanation, 0, len(p.cmds))
	for i := range p.cmds {
		pc := &p.cmds[i]
		cmd := pc.src
		if pc.end <= pc.start || len(cmd.words) == 0 {
			continue
		}
		last := p.insns[pc.end-1]
		name, _ := wordLiteral(cmd.words[0])
		reason := pc.reason
		if reason == noOpcode {
			reason = "no specialized opcode for " + strconv.Quote(name) + "; dispatched through the (inline-cached) command table"
		}
		out = append(out, CmdExplanation{
			Pos:         cmd.words[0].pos,
			Name:        name,
			Op:          dispatchOpName(last.op),
			Specialized: last.op != opInvoke,
			Reason:      reason,
		})
	}
	return out
}

// DispatchCounts tallies VM dispatches by opcode kind. One field per
// dispatch opcode; Invoke is the generic path, everything else a
// specialized one. Counting happens on the owning event-loop goroutine
// only (like every other interpreter touch), so plain int64s suffice.
type DispatchCounts struct {
	Invoke, Set, Incr, Expr, ExprTmpl, While, For int64
}

// SpecializedTotal sums the dispatches that bypassed the command table.
func (d *DispatchCounts) SpecializedTotal() int64 {
	return d.Set + d.Incr + d.Expr + d.ExprTmpl + d.While + d.For
}

// CountDispatch arms per-opcode dispatch counting and returns the
// live counter struct (idempotent: a second call returns the same).
func (in *Interp) CountDispatch() *DispatchCounts {
	if in.opCounts == nil {
		in.opCounts = &DispatchCounts{}
	}
	return in.opCounts
}

// NonCanonicalNumber reports whether s parses as a number under the
// permissive parsers (base-0 integer after space trimming, or a float)
// but is NOT a canonical spelling internValue upgrades to a typed int.
// Such values keep string semantics in the VM: every numeric use
// re-parses the text, and expr templates bail to the classic path.
// The second result is the canonical respelling when one exists.
func NonCanonicalNumber(s string) (canonical string, ok bool) {
	if internValue(s).kind == vInt {
		return "", false // already canonical
	}
	if v, err := strconv.ParseInt(strings.TrimSpace(s), 0, 64); err == nil {
		return strconv.FormatInt(v, 10), true
	}
	return "", false
}
