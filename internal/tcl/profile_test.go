package tcl

import (
	"encoding/json"
	"strings"
	"testing"

	"wafe/internal/obs"
)

// TestProfilerHotLoopAttribution is the acceptance check for the
// profiler: a synthetic hot loop inside one proc must get at least 95%
// of the profiled time attributed to that proc (cumulative) and the
// command table must carry sites with the proc's own line numbers.
func TestProfilerHotLoopAttribution(t *testing.T) {
	in := New()
	evalOK(t, in, "proc cold {} { set a 1 }\n"+profHotLoop)
	dc := in.CountDispatch()
	p := obs.NewProfiler()
	p.Start()
	in.SetProfiler(p)
	evalOK(t, in, "cold")
	got := evalOK(t, in, "hot")
	p.Stop()
	in.SetProfiler(nil)
	if got != "799980000" {
		t.Fatalf("hot = %q", got)
	}
	// The profiled window ran on the VM's specialized opcodes (the
	// for loop, its set/incr/expr), not on a slower stand-in engine.
	if dc.For != 1 || dc.SpecializedTotal() < 3*40000 {
		t.Errorf("profiled window dispatches %+v, want the specialized for loop", *dc)
	}

	total := p.TotalNs()
	if total <= 0 {
		t.Fatal("no profiled time recorded")
	}
	hot := p.ProcStat("hot")
	if hot.Count != 1 {
		t.Errorf("hot count = %d", hot.Count)
	}
	if frac := float64(hot.CumNs) / float64(total); frac < 0.95 {
		t.Errorf("hot proc gets %.1f%% of total, want >= 95%% (hot %dns of %dns)",
			frac*100, hot.CumNs, total)
	}
	// Proc self time excludes child procs only (proc-level flamegraph
	// frames); hot calls no procs, so self == cum here.
	if hot.SelfNs > hot.CumNs {
		t.Errorf("hot self %dns > cum %dns", hot.SelfNs, hot.CumNs)
	}

	// The command table attributes each invocation to its proc and the
	// line inside the evaluated script: "for@hot:3" is the loop command
	// (line 3 of hot's body); the loop body is its own one-line script,
	// so its set/expr sites are "...@hot:1".
	var sb strings.Builder
	if err := p.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	doc := sb.String()
	for _, site := range []string{`for@hot:3`, `set@hot:1`, `expr@hot:1`, `set@cold:1`} {
		if !strings.Contains(doc, site) {
			t.Errorf("profile misses site %s:\n%.400s", site, doc)
		}
	}
	// The for command's cumulative time dominates: nearly the whole
	// proc runs inside it.
	forCum := siteCum(t, p, "for@hot:3")
	if frac := float64(forCum) / float64(total); frac < 0.90 {
		t.Errorf("for loop gets %.1f%% of total, want >= 90%%", frac*100)
	}
	// Folded stacks carry the rooted proc path.
	if folded := p.Folded(); !strings.Contains(folded, "<top>;hot ") {
		t.Errorf("folded = %q", folded)
	}
}

// profHotLoop is the synthetic hot loop the profiler tests share.
const profHotLoop = `proc hot {} {
	set s 0
	for {set i 0} {$i < 40000} {incr i} {
		set s [expr {$s + $i}]
	}
	return $s
}`

// TestProfilerEngineDifferential profiles one fixed script twice, on
// the VM and on the tree-walking oracle, and requires the same site
// table: the same "cmd@proc:line" sites with the same call counts, and
// the same per-proc call counts. The script covers the hot loop, a
// proc whose [command] substitutions call procs (inside and outside
// expr), nested for/while loops, and a profileOff issued from inside a
// profiled command, after which nothing more may be recorded.
func TestProfilerEngineDifferential(t *testing.T) {
	const src = `proc sq {x} {return [expr {$x * $x}]}
proc pf {n} {
	set result {}
	for {set d 2} {$d <= $n} {incr d} {
		while {[expr $n % $d] == 0} {lappend result $d; set n [expr $n / $d]}
	}
	return $result
}
proc sumsq {n} {
	set t 0
	set i 0
	while {$i < $n} {
		incr i
		set t [expr {$t + [sq $i]}]
	}
	return "[llength [pf $t]] $t"
}
proc stop {} {
	pf 360
	detachprof
	sumsq 3
}`
	type table struct {
		Commands map[string]obs.ProfStat `json:"commands"`
		Procs    map[string]obs.ProfStat `json:"procs"`
	}
	profile := func(tree bool) table {
		in := New()
		if tree {
			UseTreeWalker(in)
		}
		p := obs.NewProfiler()
		in.RegisterCommand("detachprof", func(*Interp, []string) (string, error) {
			p.Stop()
			in.SetProfiler(nil)
			return "", nil
		})
		evalOK(t, in, profHotLoop+"\n"+src)
		p.Start()
		in.SetProfiler(p)
		evalOK(t, in, "hot")
		wantEval(t, in, "sumsq 5; pf 84", "2 2 3 7")
		evalOK(t, in, "stop; sumsq 2; hot")
		if in.Profiler() != nil {
			t.Fatal("profiler still attached after detachprof")
		}
		var sb strings.Builder
		if err := p.WriteJSON(&sb); err != nil {
			t.Fatal(err)
		}
		var tb table
		if err := json.Unmarshal([]byte(sb.String()), &tb); err != nil {
			t.Fatal(err)
		}
		return tb
	}
	vm, tree := profile(false), profile(true)
	if len(vm.Commands) == 0 {
		t.Fatal("VM profile recorded no command sites")
	}
	counts := func(m map[string]obs.ProfStat) map[string]int64 {
		out := make(map[string]int64, len(m))
		for k, v := range m {
			out[k] = v.Count
		}
		return out
	}
	for kind, pair := range map[string][2]map[string]obs.ProfStat{
		"site": {vm.Commands, tree.Commands},
		"proc": {vm.Procs, tree.Procs},
	} {
		v, w := counts(pair[0]), counts(pair[1])
		for k, n := range w {
			if v[k] != n {
				t.Errorf("%s %s: VM count %d, walker count %d", kind, k, v[k], n)
			}
		}
		for k, n := range v {
			if _, ok := w[k]; !ok {
				t.Errorf("%s %s: VM count %d, absent from the walker's profile", kind, k, n)
			}
		}
	}
	// Spot-check the shape: the hot loop ran once, its next script
	// 40000 times; nothing after detachprof was recorded.
	for site, want := range map[string]int64{"for@hot:3": 1, "incr@hot:1": 40000, "while@sumsq:4": 1, "detachprof@stop:3": 1} {
		if got := vm.Commands[site].Count; got != want {
			t.Errorf("site %s count = %d, want %d", site, got, want)
		}
	}
	if n := vm.Procs["sumsq"].Count; n != 1 {
		t.Errorf("sumsq profiled %d times, want 1 (only the call before detachprof)", n)
	}
}

// siteCum digs one command site's cumulative nanoseconds out of the
// JSON dump (the profiler has no public per-site accessor).
func siteCum(t *testing.T, p *obs.Profiler, site string) int64 {
	t.Helper()
	var sb strings.Builder
	if err := p.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	doc := sb.String()
	i := strings.Index(doc, `"`+site+`"`)
	if i < 0 {
		t.Fatalf("site %s missing", site)
	}
	j := strings.Index(doc[i:], `"cum_ns":`)
	if j < 0 {
		t.Fatalf("site %s has no cum_ns", site)
	}
	rest := doc[i+j+len(`"cum_ns":`):]
	end := strings.IndexAny(rest, ",}")
	var n int64
	for _, c := range rest[:end] {
		if c < '0' || c > '9' {
			t.Fatalf("bad cum_ns %q", rest[:end])
		}
		n = n*10 + int64(c-'0')
	}
	return n
}

// TestProfilerOffInsideProfiledCommand: profileOff runs as a command
// inside a pending profiled activation (the interpreter is mid-
// profInvoke when SetProfiler(nil) clears the stacks); the guarded
// pops must keep the interpreter alive and later evals unprofiled.
func TestProfilerOffInsideProfiledCommand(t *testing.T) {
	in := New()
	p := obs.NewProfiler()
	detach := func(*Interp, []string) (string, error) {
		p.Stop()
		in.SetProfiler(nil)
		return "", nil
	}
	in.RegisterCommand("detachprof", detach)
	p.Start()
	in.SetProfiler(p)
	evalOK(t, in, "proc q {} { detachprof; set x 1 }")
	evalOK(t, in, "q")
	if in.Profiler() != nil {
		t.Fatal("profiler still attached")
	}
	// The interpreter keeps working, unprofiled.
	wantEval(t, in, "set y 2", "2")
	if st := p.ProcStat("q"); st.Count != 0 {
		// The proc closer ran after detach with the captured profiler;
		// both recording or dropping are acceptable — what matters is
		// no panic and no negative accounting.
		if st.SelfNs < 0 || st.CumNs < 0 {
			t.Errorf("negative accounting: %+v", st)
		}
	}
}

// TestProfilerSpanOnEval: with a tracer attached, a top-level eval
// opens an eval span and proc calls nest under it.
func TestProfilerSpanOnEval(t *testing.T) {
	in := New()
	var tr obs.Trace
	tr.SetEnabled(true)
	in.SetTrace(&tr)
	evalOK(t, in, "proc f {} { return 1 }")
	evalOK(t, in, "f")
	in.SetTrace(nil)
	spans := tr.Spans()
	var evalSpan, procSpan *obs.Span
	for i := range spans {
		sp := &spans[i]
		switch {
		case sp.Kind == "eval" && sp.Name == "f":
			evalSpan = sp
		case sp.Kind == "proc" && sp.Name == "f":
			procSpan = sp
		}
	}
	if evalSpan == nil || procSpan == nil {
		t.Fatalf("spans = %+v", spans)
	}
	if procSpan.Parent != evalSpan.ID {
		t.Errorf("proc span parent = %d, want eval id %d", procSpan.Parent, evalSpan.ID)
	}
}
