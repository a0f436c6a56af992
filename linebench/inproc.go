package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"wafe/internal/frontend"
	"wafe/internal/obs"
	"wafe/internal/tcl"
	"wafe/internal/xt"
)

// Span names recorded by the traced pass. Every span's self time
// belongs to exactly one layer, so the layers partition the op time.
const (
	spanOp           = "op"            // bench: linebench's own loop
	spanLine         = "line"          // tcl: HandleAppLine minus children
	spanPump         = "pump"          // xt: App.Pump, event dispatch, xproto
	spanRedisplay    = "redisplay"     // xt: a widget class's Redisplay (xaw/xm/plotter)
	spanReply        = "reply"         // frontend: Interp.Stdout
	spanSessionNew   = "session_new"   // frontend: NewSession+LoadResources
	spanSessionClose = "session_close" // frontend: Session.Close
	// spanInstrument covers linebench wrapping a new session; it is
	// left out of the op time.
	spanInstrument = "instrument"
	cmdPrefix      = "cmd:" // core: one wrapped command
)

// span is one timed interval of the traced pass; parent and op index
// the spans slice (-1: none).
type span struct {
	name       int32
	parent, op int32
	start, end int64 // ns since the pass began
}

// tracer records spans in memory around calls into the program's
// public functions; nothing inside the program is instrumented.
type tracer struct {
	base    time.Time
	spans   []span
	cur     int32
	op      int32
	depth   int  // nesting of wrapped commands
	pumping bool // inside an App.Pump linebench issued
	names   []string
	ids     map[string]int32
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), cur: -1, op: -1, ids: map[string]int32{}}
}

func (t *tracer) id(name string) int32 {
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := int32(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = id
	return id
}

func (t *tracer) begin(name int32) int32 {
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: t.cur, op: t.op, start: int64(time.Since(t.base))})
	t.cur = i
	return i
}

func (t *tracer) end(i int32) {
	t.spans[i].end = int64(time.Since(t.base))
	t.cur = t.spans[i].parent
}

// selfTimes sums each span name's self time (duration minus the
// durations of its direct children) in nanoseconds.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[t.names[s.name]] += float64(s.end - s.start - child[i])
	}
	return out
}

// durations returns the durations in µs of every span with this name.
func (t *tracer) durations(name string) []float64 {
	id, ok := t.ids[name]
	if !ok {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.name == id {
			out = append(out, float64(s.end-s.start)/1e3)
		}
	}
	return out
}

// opDurations returns each op's duration in µs, less linebench's
// instrumentation inside it.
func (t *tracer) opDurations() []float64 {
	opID, instID := t.ids[spanOp], int32(-1)
	if id, ok := t.ids[spanInstrument]; ok {
		instID = id
	}
	var out []float64
	idx := map[int32]int{}
	for i, s := range t.spans {
		switch {
		case s.name == opID:
			idx[int32(i)] = len(out)
			out = append(out, float64(s.end-s.start)/1e3)
		case s.name == instID && s.op >= 0:
			out[idx[s.op]] -= float64(s.end-s.start) / 1e3
		}
	}
	return out
}

// write stores the spans as TSV: one row per span, parent and op are
// row numbers (-1: none).
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tstart_ns\tend_ns\tparent\top")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", t.names[s.name], s.start, s.end, s.parent, s.op)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// termScan is a session's terminal: it counts command diagnostics.
type termScan struct {
	errs  int
	first string
}

func (t *termScan) Write(b []byte) (int, error) {
	if n := bytes.Count(b, []byte("wafe: error")); n > 0 {
		t.errs += n
		if t.first == "" {
			t.first = strings.TrimSpace(string(b))
		}
	}
	return len(b), nil
}

// builtins are the commands of a fresh interpreter: the traced pass
// leaves them (and the VM's specialized opcodes) unwrapped.
var builtins = func() map[string]bool {
	m := map[string]bool{}
	for _, n := range tcl.New().CommandNames() {
		m[n] = true
	}
	return m
}()

// passMode selects what an in-process pass measures besides op time.
// Counting and tracing run in separate passes: the program's own
// counters time every line and event, which would bias the spans.
type passMode int

const (
	modePlain   passMode = iota // op times and Go runtime deltas only
	modeCounted                 // the program's counters and dispatch classes
	modeTraced                  // spans around calls into each layer
)

// inproc drives frontend.Sessions in linebench's own goroutine the
// way MainLoop does: HandleAppLine per line, then App.Pump.
type inproc struct {
	wl   workload
	mode passMode
	tr   *tracer // set in modeTraced only
	term termScan

	sess    *frontend.Session
	replies int
	reply   string

	replyLines, replyBytes int
	counters               map[string]int64 // registry deltas, modeCounted
	dispatch               tcl.DispatchCounts
	base                   map[string]int64 // registry before the first op; nil: zero
	dc                     *tcl.DispatchCounts

	// redisplays holds the original Redisplay procs of the widget
	// classes the traced pass wrapped; finish puts them back.
	redisplays map[*xt.Class]func(*xt.Widget)

	ops int
	failures
}

func newSession(term *termScan) (*frontend.Session, error) {
	s, err := frontend.NewSession(frontend.SessionConfig{
		PrivateDisplay: true,
		Opts:           &frontend.Options{Prefix: '%', LineLimit: frontend.DefaultLineLimit, AppName: "wafe"},
		Terminal:       term,
	})
	if err != nil {
		return nil, err
	}
	if err := s.LoadResources("", nil); err != nil {
		return nil, err
	}
	return s, nil
}

// open builds the session an op stream runs against; traced passes
// time it as a frontend span.
func (p *inproc) open() error {
	var sp int32
	if p.tr != nil {
		sp = p.tr.begin(p.tr.id(spanSessionNew))
	}
	s, err := newSession(&p.term)
	if p.tr != nil {
		p.tr.end(sp)
	}
	if err != nil {
		return err
	}
	p.sess = s
	s.W.Interp.Stdout = p.onReply
	switch p.mode {
	case modeCounted:
		s.W.EnableObservability()
		p.dc = s.W.Interp.CountDispatch()
	case modeTraced:
		sp := p.tr.begin(p.tr.id(spanInstrument))
		p.instrument()
		p.tr.end(sp)
	}
	return nil
}

// instrument wraps every command the program adds to a fresh
// interpreter (plus echo, the reply-write boundary) and the widget
// classes' Redisplay procs.
func (p *inproc) instrument() {
	w := p.sess.W
	creation := w.CreationClasses()
	in := w.Interp
	for _, name := range in.CommandNames() {
		if builtins[name] && name != "echo" {
			continue
		}
		fn, _ := in.Command(name)
		label := name
		if _, ok := creation[name]; ok {
			label = "create"
		}
		in.RegisterCommand(name, p.wrap(p.tr.id(cmdPrefix+label), fn))
	}
	p.wrapRedisplay(w.TopLevel.Class)
	for _, c := range creation {
		p.wrapRedisplay(c)
	}
}

// wrapRedisplay times the Redisplay procs on a class chain. Widgets
// repaint synchronously inside SetValues as well as on Expose, so the
// widget sets' time is found wherever it runs and counted as xt.
// Classes are process-wide; each is wrapped once per pass.
func (p *inproc) wrapRedisplay(c *xt.Class) {
	if p.redisplays == nil {
		p.redisplays = map[*xt.Class]func(*xt.Widget){}
	}
	id := p.tr.id(spanRedisplay)
	for k := c; k != nil; k = k.Super {
		orig := k.Redisplay
		if _, done := p.redisplays[k]; done || orig == nil {
			continue
		}
		p.redisplays[k] = orig
		k.Redisplay = func(w *xt.Widget) {
			sp := p.tr.begin(id)
			orig(w)
			p.tr.end(sp)
		}
	}
}

// wrap times a command's call. After a top-level command linebench
// pumps the event queues itself, so the Redisplay its damage triggers
// is timed as xt rather than inside the line (Wafe.Eval's own pump
// then finds the queues empty; each line holds one top-level command).
func (p *inproc) wrap(id int32, fn tcl.CommandFunc) tcl.CommandFunc {
	pump := p.tr.id(spanPump)
	return func(in *tcl.Interp, argv []string) (string, error) {
		sp := p.tr.begin(id)
		p.tr.depth++
		res, err := fn(in, argv)
		p.tr.depth--
		p.tr.end(sp)
		if p.tr.depth == 0 && !p.tr.pumping {
			p.pump(pump)
		}
		return res, err
	}
}

func (p *inproc) onReply(line string) {
	if p.tr != nil {
		sp := p.tr.begin(p.tr.id(spanReply))
		defer p.tr.end(sp)
	}
	p.replies++
	p.reply = line
	p.replyLines++
	p.replyBytes += len(line) + 1
}

// close retires the session, folding its counters into the totals.
func (p *inproc) close() {
	if p.mode == modeCounted {
		p.collect()
	}
	if p.tr == nil {
		p.sess.Close()
	} else {
		sp := p.tr.begin(p.tr.id(spanSessionClose))
		p.sess.Close()
		p.tr.end(sp)
	}
	p.sess = nil
}

func (p *inproc) collect() {
	if p.counters == nil {
		p.counters = map[string]int64{}
	}
	for _, smp := range p.sess.W.Metrics.Snapshot() {
		p.counters[smp.Name] += smp.Value - p.base[smp.Name]
	}
	p.base = nil
	d := p.dc
	p.dispatch.Invoke += d.Invoke
	p.dispatch.Set += d.Set
	p.dispatch.Incr += d.Incr
	p.dispatch.Expr += d.Expr
	p.dispatch.ExprTmpl += d.ExprTmpl
	p.dispatch.While += d.While
	p.dispatch.For += d.For
	*d = tcl.DispatchCounts{}
}

// lines feeds newline-terminated protocol lines to the session.
func (p *inproc) lines(b []byte) {
	app := p.sess.W.App
	for len(b) > 0 {
		i := bytes.IndexByte(b, '\n')
		line := string(b[:i])
		b = b[i+1:]
		if p.tr == nil {
			p.sess.F.HandleAppLine(line)
			app.Pump()
			continue
		}
		sp := p.tr.begin(p.tr.id(spanLine))
		p.sess.F.HandleAppLine(line)
		p.tr.end(sp)
		p.pump(p.tr.id(spanPump))
	}
}

// pump runs App.Pump as a traced xt span; a command a callback runs
// during it does not pump again.
func (p *inproc) pump(id int32) {
	ps := p.tr.begin(id)
	p.tr.pumping = true
	p.sess.W.App.Pump()
	p.tr.pumping = false
	p.tr.end(ps)
}

// runOp runs one op and checks it produced exactly its reply.
func (p *inproc) runOp(o *op) error {
	if p.wl.perSession {
		if err := p.open(); err != nil {
			return err
		}
	}
	p.replies = 0
	p.lines(o.req)
	if p.replies != 1 || p.reply != o.want {
		p.fail("op %d: %d replies, last %q, want %q", p.ops, p.replies, p.reply, o.want)
	}
	p.lines(o.answer)
	if p.wl.perSession {
		p.close()
	}
	p.ops++
	return nil
}

// setup readies a steady-state session: widget tree built and acked.
func (p *inproc) setup() error {
	if p.wl.perSession {
		return nil
	}
	if err := p.open(); err != nil {
		return err
	}
	p.replies = 0
	p.lines([]byte(p.wl.setup + "%echo ready\n"))
	if p.reply != "ready" {
		return fmt.Errorf("set-up: reply %q, want ready", p.reply)
	}
	// Counters and spans start at the first op.
	p.replyLines, p.replyBytes = 0, 0
	switch p.mode {
	case modeCounted:
		p.base = snapshot(p.sess.W.Metrics.Snapshot())
		*p.dc = tcl.DispatchCounts{}
	case modeTraced:
		p.tr.spans = p.tr.spans[:0]
		p.tr.cur = -1
	}
	return nil
}

func (p *inproc) finish() {
	if p.sess != nil {
		p.close()
	}
	for k, orig := range p.redisplays {
		k.Redisplay = orig
	}
	if p.term.errs > 0 {
		p.failed += p.term.errs
		p.problems = append(p.problems, "terminal: "+p.term.first)
	}
}

func snapshot(samples []obs.Sample) map[string]int64 {
	m := make(map[string]int64, len(samples))
	for _, s := range samples {
		m[s.Name] = s.Value
	}
	return m
}

// passResult is one in-process pass over the op stream.
type passResult struct {
	p    *inproc
	opUS []float64
	// free releases a traced pass's span storage; the spans are read
	// until then.
	free func()
	// Go runtime deltas over the ops: bytes and objects allocated
	// (linebench's own line strings included), GC cycles.
	allocBytes, mallocs uint64
	gcs                 uint32
}

// runPass runs the workload's op stream from its start for dur or at
// most maxOps ops.
func runPass(wl workload, seed int64, dur time.Duration, maxOps int, mode passMode) (*passResult, error) {
	p := &inproc{wl: wl, mode: mode}
	res := &passResult{p: p, opUS: make([]float64, 0, maxOps), free: func() {}}
	traced := mode == modeTraced
	if traced {
		spans, free, err := spanStore(maxOps * spansPerOp)
		if err != nil {
			return nil, err
		}
		p.tr = newTracer()
		p.tr.spans, res.free = spans, free
	}
	if err := p.setup(); err != nil {
		res.free()
		return nil, err
	}
	s := wl.newStream(seed)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	end := time.Now().Add(dur)
	opID := int32(-1)
	if traced {
		opID = p.tr.id(spanOp)
	}
	for p.ops < maxOps && (!traced || len(p.tr.spans)+spansPerOp <= cap(p.tr.spans)) {
		if !time.Now().Before(end) {
			break
		}
		o := s.next()
		t := time.Now()
		if traced {
			p.tr.op = int32(len(p.tr.spans))
			sp := p.tr.begin(opID)
			err := p.runOp(o)
			p.tr.end(sp)
			if err != nil {
				res.free()
				return nil, err
			}
			continue
		}
		if err := p.runOp(o); err != nil {
			return nil, err
		}
		res.opUS = append(res.opUS, float64(time.Since(t).Nanoseconds())/1e3)
	}
	runtime.ReadMemStats(&m1)
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.gcs = m1.NumGC - m0.NumGC
	if line, want, ok := s.final(); ok {
		var kept int
		if traced {
			kept = len(p.tr.spans)
		}
		p.replies = 0
		p.lines([]byte(line + "\n"))
		if p.reply != want {
			p.fail("closing read-back: got %q, want %q", p.reply, want)
		}
		if traced {
			p.tr.spans = p.tr.spans[:kept] // the read-back is no op
		}
	}
	p.finish()
	if traced {
		res.opUS = p.tr.opDurations()
	}
	return res, nil
}

// spansPerOp bounds the spans one op records (a churn op, the largest,
// records about 40); span storage holds this many per op.
const spansPerOp = 64

// spanStore allocates span storage outside the Go heap, so that the
// traced pass's record does not change the GC pacing it measures.
// Spans hold no pointers.
func spanStore(n int) ([]span, func(), error) {
	mem, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(span{})), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, fmt.Errorf("span storage: %w", err)
	}
	spans := unsafe.Slice((*span)(unsafe.Pointer(&mem[0])), n)[:0]
	return spans, func() { _ = syscall.Munmap(mem) }, nil
}

// compileUS times tcl.Compile over every command line of the first n
// ops, in µs per op.
func compileUS(wl workload, seed int64, n int) float64 {
	s := wl.newStream(seed)
	var total time.Duration
	for i := 0; i < n; i++ {
		o := s.next()
		for _, b := range [][]byte{o.req, o.answer} {
			for _, line := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
				if !strings.HasPrefix(line, "%") {
					continue
				}
				src := line[1:]
				t := time.Now()
				_, _ = tcl.Compile(src)
				total += time.Since(t)
			}
		}
	}
	return float64(total.Nanoseconds()) / 1e3 / float64(n)
}

// sessionCost builds k idle sessions, each with its event loop running
// as in serve mode, and measures construction time and allocation per
// session, the retained heap plus goroutine stacks per held session,
// and teardown time.
func sessionCost(k int) (newUS, closeUS, allocKB, heldKB float64, err error) {
	var term termScan
	var m0, m1, a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	type held struct {
		s    *frontend.Session
		done chan struct{}
	}
	var hs []held
	var news, allocs []float64
	for i := 0; i < k; i++ {
		runtime.ReadMemStats(&a)
		t := time.Now()
		s, err := newSession(&term)
		d := time.Since(t)
		runtime.ReadMemStats(&b)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		news = append(news, float64(d.Nanoseconds())/1e3)
		allocs = append(allocs, float64(b.TotalAlloc-a.TotalAlloc)/1024)
		h := held{s: s, done: make(chan struct{})}
		go func() {
			_, _ = h.s.Run()
			close(h.done)
		}()
		// Wait until the loop runs, so its goroutine stack exists.
		ran := make(chan struct{})
		s.W.App.Post(func() { close(ran) })
		<-ran
		hs = append(hs, h)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	heldKB = (float64(m1.HeapInuse+m1.StackInuse) - float64(m0.HeapInuse+m0.StackInuse)) / 1024 / float64(k)
	var closes []float64
	for _, h := range hs {
		h.s.Interrupt(0)
		<-h.done
		t := time.Now()
		h.s.Close()
		closes = append(closes, float64(time.Since(t).Nanoseconds())/1e3)
	}
	if term.errs > 0 {
		return 0, 0, 0, 0, fmt.Errorf("idle session reported %q", term.first)
	}
	return median(news), median(closes), median(allocs), heldKB, nil
}

// layerTable renders each span name's share of the traced op time.
func layerTable(self map[string]float64, ops int) []string {
	var total float64
	names := make([]string, 0, len(self))
	for n, v := range self {
		if n != spanInstrument {
			total += v
		}
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	out := []string{fmt.Sprintf("%-26s %-9s %12s %8s", "span", "layer", "self_us/op", "share")}
	layers := map[string]float64{}
	for _, n := range names {
		layers[layerOf(n)] += self[n]
		out = append(out, fmt.Sprintf("%-26s %-9s %12.3f %7.2f%%", n, layerOf(n), self[n]/1e3/float64(ops), 100*ratio(self[n], total)))
	}
	line := "layers:"
	for _, l := range []string{"frontend", "tcl", "core", "xt", "bench"} {
		line += fmt.Sprintf(" %s %.2f%%", l, 100*ratio(layers[l], total))
	}
	return append(out, line)
}

func layerOf(span string) string {
	switch {
	case strings.HasPrefix(span, cmdPrefix):
		return "core"
	case span == spanLine:
		return "tcl"
	case span == spanPump, span == spanRedisplay:
		return "xt"
	case span == spanOp:
		return "bench"
	case span == spanInstrument:
		return "excluded"
	}
	return "frontend"
}
