package tcl

import (
	"strconv"
	"strings"
	"time"

	"wafe/internal/obs"
)

// This file is the interpreter side of the Tcl profiler (profileOn /
// profileOff / profileDump): activation-record bookkeeping that splits
// every command invocation and proc call into self time (the site
// itself) and cumulative time (children included), attributed to
// "<cmd>@<proc>:<line>" sites via the byte positions the compiled
// Script retains, and to folded proc stacks for flamegraph output.
//
// The profiler is a measurement mode, not a hot path: with no profiler
// attached the only cost is one pointer comparison per evaluated
// command (the same discipline as the obs metric pointers).

// SetProfiler attaches a profiler (non-nil while a profiling window is
// open) or detaches it with nil, which also drops the activation
// bookkeeping.
func (in *Interp) SetProfiler(p *obs.Profiler) {
	in.prof = p
	if p == nil {
		in.profCmdChild = nil
		in.profProcChild = nil
		in.profProcStack = nil
		in.profLines = nil
	}
}

// Profiler returns the attached profiler, or nil.
func (in *Interp) Profiler() *obs.Profiler { return in.prof }

// SetTrace attaches (or, with nil, detaches) the span tracer the
// top-level eval and proc-call sites record into.
func (in *Interp) SetTrace(t *obs.Trace) { in.trace = t }

// profDispatch is dispatch wrapped in the profiler's activation
// record: it measures the command's wall time, subtracts the time of
// commands nested inside it (loop bodies, proc bodies, command
// substitutions evaluated during the call) and charges the remainder
// as self time to the command's site. execCmd calls it after the
// command's words are computed, so [command] substitution in the
// arguments is charged to the enclosing record, not to this site.
func (in *Interp) profDispatch(p *Program, c *progCmd, ins *insn, regs []Value) (Value, string, bool, error) {
	prof := in.prof
	in.profCmdChild = append(in.profCmdChild, 0)
	start := time.Now()
	res, name, invoked, err := in.dispatch(p, c, ins, regs)
	in.profCharge(prof, invoked, name, p.script, c.src.words[0].pos, time.Since(start))
	return res, name, invoked, err
}

// profCharge closes a command activation record (opened by pushing a
// zero child accumulator) that lasted dur, and charges it to the site
// "<name>@<proc>:<line>", line being that of byte offset pos in s. A
// record in which no command was invoked is dropped uncharged.
func (in *Interp) profCharge(prof *obs.Profiler, invoked bool, name string, s *Script, pos int, dur time.Duration) {
	// The stacks may have been cleared under us when the invoked
	// command was profileOff itself (SetProfiler(nil) drops them);
	// every pop is therefore guarded.
	var child time.Duration
	if n := len(in.profCmdChild) - 1; n >= 0 {
		child = time.Duration(in.profCmdChild[n])
		in.profCmdChild = in.profCmdChild[:n]
		if n > 0 && invoked {
			in.profCmdChild[n-1] += int64(dur)
		}
	}
	if prof == nil || !invoked {
		return
	}
	self := dur - child
	if self < 0 {
		self = 0
	}
	proc := "<top>"
	if f := in.currentFrame(); f.proc != nil {
		proc = f.proc.Name
	}
	prof.AddCommand(name+"@"+proc+":"+strconv.Itoa(in.profLine(s, pos)), self, dur)
}

// profLine maps a byte offset in s.Source to its 1-based line, caching
// a newline index per Script so hot loops do not rescan the source on
// every iteration. Lines are relative to the evaluated script's own
// source (a proc body counts from the body's first line).
func (in *Interp) profLine(s *Script, off int) int {
	if in.profLines == nil {
		in.profLines = make(map[*Script][]int)
	}
	idx, ok := in.profLines[s]
	if !ok {
		for i := 0; i < len(s.Source); i++ {
			if s.Source[i] == '\n' {
				idx = append(idx, i)
			}
		}
		in.profLines[s] = idx
	}
	// Count newlines before off: binary search the index.
	lo, hi := 0, len(idx)
	for lo < hi {
		mid := (lo + hi) / 2
		if idx[mid] < off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// profEnterProc opens a proc activation record and returns the closer
// that charges the call to the per-proc and folded-stack tables.
func (in *Interp) profEnterProc(name string) func() {
	prof := in.prof
	recursive := false
	for _, n := range in.profProcStack {
		if n == name {
			recursive = true
			break
		}
	}
	in.profProcStack = append(in.profProcStack, name)
	in.profProcChild = append(in.profProcChild, 0)
	start := time.Now()
	return func() {
		dur := time.Since(start)
		var child time.Duration
		if n := len(in.profProcChild) - 1; n >= 0 {
			child = time.Duration(in.profProcChild[n])
			in.profProcChild = in.profProcChild[:n]
			if n > 0 {
				in.profProcChild[n-1] += int64(dur)
			}
		}
		stack := "<top>;" + name
		if n := len(in.profProcStack); n > 0 {
			stack = "<top>;" + strings.Join(in.profProcStack, ";")
			in.profProcStack = in.profProcStack[:n-1]
		}
		self := dur - child
		if self < 0 {
			self = 0
		}
		if prof != nil {
			prof.AddProc(name, stack, self, dur, recursive)
		}
	}
}

// profToplevel closes the accounting of one profiled top-level eval.
func (in *Interp) profToplevel(prof *obs.Profiler, dur time.Duration) {
	var child time.Duration
	if n := len(in.profCmdChild) - 1; n >= 0 {
		child = time.Duration(in.profCmdChild[n])
		in.profCmdChild = in.profCmdChild[:n]
	}
	self := dur - child
	if self < 0 {
		self = 0
	}
	if prof != nil {
		prof.AddToplevel(self, dur)
	}
}

// spanName condenses script source into a span label: first line,
// capped length.
func spanName(src string) string {
	if i := strings.IndexByte(src, '\n'); i >= 0 {
		src = src[:i]
	}
	const max = 64
	if len(src) > max {
		src = src[:max]
	}
	return src
}
