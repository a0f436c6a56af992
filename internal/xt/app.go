package xt

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wafe/internal/obs"
	"wafe/internal/xproto"
)

type windowKey struct {
	d   *xproto.Display
	win xproto.WindowID
}

// WorkProc is a background procedure run when the event loop is idle
// (XtAppAddWorkProc). Returning true removes it.
type WorkProc func() bool

// App is the application context (XtAppContext): displays, the resource
// database, converters, global actions, timeouts, alternate inputs and
// work procedures, plus the widget registries.
type App struct {
	Name      string
	ClassName string

	// Namespace scopes every display name this app opens. A serve-mode
	// session sets it to its session id, so two sessions whose scripts
	// both say "applicationShell top2 dec4:0" get two distinct virtual
	// displays — the named in-memory displays are the isolation
	// boundary between sessions. Empty (the single-process default)
	// leaves display names untouched.
	Namespace string

	DB *Xrm

	display  *xproto.Display
	displays []*xproto.Display

	converters  map[string]Converter
	convertersQ map[Quark]Converter // same converters, keyed by interned type
	formatters  map[string]Formatter
	actions     map[string]ActionProc

	widgets     map[string]*Widget
	byWindow    map[windowKey]*Widget
	liveWidgets int

	posted chan func()
	timers []*Timer
	works  []WorkProc
	nextID int

	// input is the alternate input the loop reads while nothing is
	// posted (SetInput); nil when none is attached. idleTimer bounds
	// the wait without one. Both are loop-owned.
	input     *input
	idleTimer *time.Timer

	// wakeMu guards blocked and the input's deadline. blocked is the
	// input while the loop is in, or about to enter, a read that Post
	// may interrupt; Post wakes the loop through it.
	wakeMu  sync.Mutex
	blocked *input

	quit     bool
	quitCode int

	// fullRepaint forces the legacy render path: every damage rect
	// widens to the whole window and every expose clears and repaints
	// unconditionally. Kept as the differential oracle the clipped
	// pipeline is compared against.
	fullRepaint bool

	// dispatchedCall points at the translation binding currently being
	// dispatched, so action procedures can reach their per-binding
	// Compiled cache slot. Nil outside DispatchEvent.
	dispatchedCall *ActionCall

	// ErrorHandler receives errors raised while dispatching actions and
	// callbacks (default: collect into Errors).
	ErrorHandler func(error)
	errorsMu     sync.Mutex
	errors       []error

	// obs, when non-nil, collects event-dispatch latency, queue depths
	// and callback/action firings. Nil (the default) keeps the
	// dispatch paths at a single atomic pointer load. Atomic because
	// Post is called from other goroutines while observability
	// may be enabled on the loop goroutine mid-session.
	obs atomic.Pointer[obs.XtMetrics]
	// displayObs is handed to every display attached to the app, so
	// displays opened after observability is enabled are instrumented
	// too.
	displayObs atomic.Pointer[obs.XprotoMetrics]

	// trace, when non-nil, records spans per event dispatch, action
	// and callback, and is handed to every display (current and
	// future) for per-request spans. Same atomic discipline as obs.
	trace atomic.Pointer[obs.Trace]

	// loopGoID identifies the goroutine currently running the event
	// loop (MainLoop, or Sync in tests); zero when none. Post consults
	// it on the full-queue path to avoid deadlocking against itself.
	loopGoID atomic.Int64
}

// SetObs attaches (or, with nil, detaches) the observability metrics,
// including the resource-database search-list and generation metrics.
func (app *App) SetObs(m *obs.XtMetrics) {
	app.obs.Store(m)
	app.DB.SetObs(m)
}

// SetDisplayObs attaches protocol-request metrics to every display of
// the app, current and future.
func (app *App) SetDisplayObs(m *obs.XprotoMetrics) {
	app.displayObs.Store(m)
	for _, d := range app.displays {
		d.SetObs(m)
	}
}

// SetTrace attaches (or, with nil, detaches) the span tracer, on the
// app's dispatch sites and on every display of the app, current and
// future.
func (app *App) SetTrace(t *obs.Trace) {
	app.trace.Store(t)
	for _, d := range app.displays {
		d.SetTrace(t)
	}
}

// NewApp creates an application context bound to the named display
// (the empty string means ":0").
func NewApp(appName, className, displayName string) *App {
	d := xproto.OpenDisplay(displayName)
	return newAppOn(appName, className, d)
}

// NewSessionApp creates an application context inside a display
// namespace: the primary display and every secondary display opened
// later are named <namespace>/<name>, private to this session by
// uniqueness of the namespace. Close releases them.
func NewSessionApp(appName, className, namespace string) *App {
	d := xproto.OpenDisplay(namespace + "/:0")
	app := newAppOn(appName, className, d)
	app.Namespace = namespace
	return app
}

// NewTestApp creates an app on a private display for tests.
func NewTestApp(appName string) *App {
	className := appName
	if className != "" {
		b := []byte(className)
		if b[0] >= 'a' && b[0] <= 'z' {
			b[0] -= 32
		}
		className = string(b)
	}
	return newAppOn(appName, className, xproto.NewTestDisplay())
}

func newAppOn(appName, className string, d *xproto.Display) *App {
	app := &App{
		Name:        appName,
		ClassName:   className,
		DB:          NewXrm(),
		display:     d,
		displays:    []*xproto.Display{d},
		converters:  make(map[string]Converter),
		convertersQ: make(map[Quark]Converter),
		formatters:  make(map[string]Formatter),
		actions:     make(map[string]ActionProc),
		widgets:     make(map[string]*Widget),
		byWindow:    make(map[windowKey]*Widget),
		posted:      make(chan func(), 1024),
	}
	app.ErrorHandler = func(err error) {
		app.errorsMu.Lock()
		app.errors = append(app.errors, err)
		app.errorsMu.Unlock()
	}
	registerBuiltinConverters(app)
	return app
}

// Display returns the default display.
func (app *App) Display() *xproto.Display { return app.display }

// OpenSecondDisplay attaches another display to the application, as
// "applicationShell top2 dec4:0" requires. Inside a namespaced app the
// name is scoped to the session, so equal names in different sessions
// open distinct displays.
func (app *App) OpenSecondDisplay(name string) *xproto.Display {
	if app.Namespace != "" {
		name = app.Namespace + "/" + name
	}
	d := xproto.OpenDisplay(name)
	for _, have := range app.displays {
		if have == d {
			return d
		}
	}
	if m := app.displayObs.Load(); m != nil {
		d.SetObs(m)
	}
	if t := app.trace.Load(); t != nil {
		d.SetTrace(t)
	}
	app.displays = append(app.displays, d)
	return d
}

// Displays returns all displays attached to the app.
func (app *App) Displays() []*xproto.Display {
	return append([]*xproto.Display(nil), app.displays...)
}

// Close releases the app's displays from the process-wide registry so
// a retired session's virtual displays (and their window trees, draw
// logs and event queues) become collectable. Must run after the
// event loop has stopped.
func (app *App) Close() {
	for _, d := range app.displays {
		xproto.CloseDisplay(d)
	}
}

// WidgetByName resolves a widget reference — the string names Wafe uses
// everywhere instead of widget pointers.
func (app *App) WidgetByName(name string) *Widget { return app.widgets[name] }

// WidgetForWindow resolves a server window back to its widget
// (XtWindowToWidget).
func (app *App) WidgetForWindow(d *xproto.Display, win xproto.WindowID) *Widget {
	return app.byWindow[windowKey{d, win}]
}

// WidgetNames lists all live widgets, sorted.
func (app *App) WidgetNames() []string {
	out := make([]string, 0, len(app.widgets))
	for n := range app.widgets {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// LiveWidgets returns the number of live widget instances (tests assert
// Wafe's memory-management claim with it).
func (app *App) LiveWidgets() int { return app.liveWidgets }

// Errors drains the collected dispatch errors.
func (app *App) Errors() []error {
	app.errorsMu.Lock()
	defer app.errorsMu.Unlock()
	out := app.errors
	app.errors = nil
	return out
}

func (app *App) raise(err error) {
	if err == nil {
		return
	}
	if app.ErrorHandler != nil {
		app.ErrorHandler(err)
	}
}

// --- actions ---------------------------------------------------------------

// AddAction registers a global action procedure (XtAppAddActions); the
// Wafe layer registers "exec" this way.
func (app *App) AddAction(name string, proc ActionProc) { app.actions[name] = proc }

// LookupAction resolves an action for a widget: class chain first, then
// the global table.
func (app *App) LookupAction(w *Widget, name string) ActionProc {
	if a := w.Class.actionFor(name); a != nil {
		return a
	}
	return app.actions[name]
}

// --- event dispatch ----------------------------------------------------------

// DispatchEvent routes one X event to its widget (XtDispatchEvent):
// Expose redraws, input events run through the translation table.
// With observability attached, each dispatch is counted and timed;
// with tracing attached, each dispatch is a span (a root span when no
// protocol line is open — timer- and input-driven events).
func (app *App) DispatchEvent(d *xproto.Display, ev xproto.Event) {
	if t := app.trace.Load(); t != nil && t.Enabled() {
		sp := t.StartSpan("dispatch", ev.Type.String())
		defer sp.End()
	}
	if m := app.obs.Load(); m != nil {
		start := time.Now()
		app.dispatchEvent(d, ev)
		m.EventsDispatched.Inc()
		m.DispatchLatency.Observe(time.Since(start))
		return
	}
	app.dispatchEvent(d, ev)
}

func (app *App) dispatchEvent(d *xproto.Display, ev xproto.Event) {
	w := app.byWindow[windowKey{d, ev.Window}]
	if w == nil || w.beingDestroyed {
		return
	}
	switch ev.Type {
	case xproto.Expose:
		w.redrawExpose(&ev)
		return
	case xproto.MapNotify, xproto.UnmapNotify, xproto.ConfigureNotify, xproto.DestroyNotify:
		return
	}
	if !w.IsSensitive() {
		return
	}
	calls := w.translations().Match(&ev)
	for i := range calls {
		call := &calls[i]
		recv := w
		if call.Target != nil && !call.Target.beingDestroyed {
			recv = call.Target
		}
		proc := app.LookupAction(recv, call.Name)
		if proc == nil {
			app.raise(fmt.Errorf("xt: widget %q: unbound action %q", recv.Name, call.Name))
			continue
		}
		if m := app.obs.Load(); m != nil {
			m.ActionsFired.Inc()
		}
		var sp obs.SpanCtx
		if t := app.trace.Load(); t != nil {
			sp = t.StartSpan("action", call.Name)
		}
		app.dispatchedCall = call
		proc(recv, &ev, call.Params)
		app.dispatchedCall = nil
		sp.End()
	}
}

// DispatchedCall returns the translation binding whose action is
// currently executing, or nil. Action procedures use it to cache a
// parsed form of their params on the binding (ActionCall.Compiled).
func (app *App) DispatchedCall() *ActionCall { return app.dispatchedCall }

// SetFullRepaint switches between the damage-clipped render pipeline
// (default) and the legacy full-repaint path. The render oracle tests
// run both and require identical snapshots.
func (app *App) SetFullRepaint(on bool) { app.fullRepaint = on }

// FullRepaint reports whether the legacy full-repaint path is active.
func (app *App) FullRepaint() bool { return app.fullRepaint }

// Pump dispatches all pending events on all displays until the queues
// are empty. Tests and the Wafe command layer call it after injecting
// events; the main loop calls it each iteration.
func (app *App) Pump() {
	for rounds := 0; rounds < 1000; rounds++ {
		progress := false
		for _, d := range app.displays {
			if m := app.obs.Load(); m != nil {
				m.EventQueueDepth.Observe(int64(d.Pending()))
			}
			for {
				ev, ok := d.NextEvent()
				if !ok {
					break
				}
				progress = true
				app.DispatchEvent(d, ev)
			}
		}
		if !progress {
			return
		}
	}
}

// Post schedules fn to run on the event-loop goroutine, waking the
// loop if it is blocked reading its input.
func (app *App) Post(fn func()) {
	if m := app.obs.Load(); m != nil {
		m.PostedQueueDepth.Observe(int64(len(app.posted)))
	}
	select {
	case app.posted <- fn:
	default:
		// Queue full. A blocking send is correct from other
		// goroutines, which may legitimately outpace the loop — but on
		// the loop goroutine itself (a callback or timer posting) it
		// would wait on the only goroutine able to drain the queue.
		// Run the closure inline in that case; the goroutine identity
		// check is confined to this cold path.
		if app.loopGoID.Load() == goid() {
			fn()
			return
		}
		// Wake first: a loop parked in its input read would never
		// drain the queue this send waits on.
		app.wake()
		app.posted <- fn
	}
	app.wake()
}

// --- timeouts ----------------------------------------------------------------

// Timer is a pending timeout (XtAppAddTimeOut).
type Timer struct {
	id       int
	deadline time.Time
	fn       func()
	removed  bool
}

// AddTimeout schedules fn once after d.
func (app *App) AddTimeout(d time.Duration, fn func()) *Timer {
	app.nextID++
	t := &Timer{id: app.nextID, deadline: time.Now().Add(d), fn: fn}
	app.timers = append(app.timers, t)
	return t
}

// Remove cancels the timer (XtRemoveTimeOut).
func (t *Timer) Remove() { t.removed = true }

// runDueTimers fires expired timers and returns the earliest pending
// deadline (zero when none) and whether any timer fired.
func (app *App) runDueTimers() (next time.Time, fired bool) {
	if len(app.timers) == 0 {
		return time.Time{}, false
	}
	now := time.Now()
	var keep []*Timer
	var due []*Timer
	for _, t := range app.timers {
		switch {
		case t.removed:
		case !t.deadline.After(now):
			due = append(due, t)
		default:
			keep = append(keep, t)
			if next.IsZero() || t.deadline.Before(next) {
				next = t.deadline
			}
		}
	}
	app.timers = keep
	for _, t := range due {
		// Recheck removal: XtRemoveTimeOut guarantees a removed timeout
		// never fires, including removal by an earlier timer callback
		// in the same due batch.
		if t.removed {
			continue
		}
		t.fn()
	}
	return next, len(due) > 0
}

// --- alternate input ----------------------------------------------------------

// InputConn is a stream the event loop waits on itself: a Read blocked
// on it returns early, with an os.ErrDeadlineExceeded error, once its
// read deadline passes. net.Conn and pollable *os.File pipes and
// sockets satisfy it.
type InputConn interface {
	io.Reader
	SetReadDeadline(t time.Time) error
}

// input is the alternate input registered with SetInput.
type input struct {
	conn InputConn
	read func() bool
	// deadline is the read deadline last set on conn (zero: none).
	// Guarded by App.wakeMu: Post's wake-up sets it too.
	deadline time.Time
}

// wakeDeadline is the read deadline Post sets to wake a blocked loop:
// any instant in the past interrupts the read at once.
var wakeDeadline = time.Unix(0, 1)

// SetInput registers conn as the loop's alternate input
// (XtAppAddInput on the pipe from the application program). Whenever
// nothing is posted, MainLoop calls read, which blocks in a Read on
// conn and handles what arrives, reading ahead no further than the
// kernel's socket or pipe buffer lets the peer write. Every pass of
// the loop calls read once, so timers and posts cannot starve the
// input. The loop sets a read deadline when a timer or work proc is
// pending, at least inputPoll ahead, and Post sets one in the past to
// wake it, so read must treat os.ErrDeadlineExceeded as "nothing yet"
// and keep any partial data for its next call. read returns false once the input is finished
// (EOF or a read error), which detaches it; the loop then waits on
// posts and timers alone. SetInput replaces any earlier input and
// runs on the loop goroutine or before MainLoop starts. It fails,
// registering nothing, when conn does not support read deadlines.
func (app *App) SetInput(conn InputConn, read func() bool) error {
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		return err
	}
	app.input = &input{conn: conn, read: read}
	return nil
}

// inputPoll is the shortest wait the loop arms on its input. A Read
// whose deadline has already passed fails before it reads anything, so
// with no floor a timer due on every pass would keep the loop from ever
// reading its input. A wait this short is a poll that Post does not
// interrupt: a wake-up landing before every read would starve the input
// the same way, and a posted closure waits at most this long. An idle
// process's poller sleeps a millisecond at least in any case.
const inputPoll = time.Millisecond

// readInput runs one read step of the input with the given deadline
// (zero: none) and reports whether the deadline passed with nothing
// posted. Every call short of Quit gives the input one read attempt.
func (app *App) readInput(in *input, deadline time.Time) bool {
	poll := false
	if !deadline.IsZero() {
		if min := time.Now().Add(inputPoll); deadline.Before(min) {
			deadline, poll = min, true
		}
	}
	app.arm(in, deadline, !poll)
	// A Post that landed before arm found nothing to wake. Run it, then
	// only poll the input: the closure may have queued events or timers
	// for the next pass.
	ran := app.runPosted()
	if app.quit {
		app.unblock()
		return false
	}
	if ran && !poll {
		deadline = time.Now().Add(inputPoll)
		app.arm(in, deadline, false)
	}
	more := in.read()
	app.unblock()
	if !more && app.input == in {
		app.input = nil
	}
	return !ran && !deadline.IsZero() && !time.Now().Before(deadline)
}

// arm sets the read deadline for the input's next read and whether a
// Post may interrupt that read.
func (app *App) arm(in *input, deadline time.Time, wakeable bool) {
	app.wakeMu.Lock()
	if !deadline.Equal(in.deadline) {
		// A conn that cannot take the deadline is broken; the read
		// reports that itself.
		_ = in.conn.SetReadDeadline(deadline)
		in.deadline = deadline
	}
	app.blocked = nil
	if wakeable {
		app.blocked = in
	}
	app.wakeMu.Unlock()
}

func (app *App) unblock() {
	app.wakeMu.Lock()
	app.blocked = nil
	app.wakeMu.Unlock()
}

// wake interrupts a loop blocked in (or about to enter) its input
// read by moving the read deadline into the past. The next readInput
// resets the deadline, so a wake-up that lands late costs one extra
// iteration, not a spin. SetReadDeadline does not block; wakeMu
// orders it against the loop's own arming, which would otherwise
// overwrite the wake-up.
func (app *App) wake() {
	app.wakeMu.Lock()
	if in := app.blocked; in != nil {
		_ = in.conn.SetReadDeadline(wakeDeadline)
		in.deadline = wakeDeadline
		app.blocked = nil
	}
	app.wakeMu.Unlock()
}

// --- work procs -----------------------------------------------------------------

// AddWorkProc registers a background procedure (XtAppAddWorkProc).
func (app *App) AddWorkProc(p WorkProc) { app.works = append(app.works, p) }

func (app *App) runOneWorkProc() bool {
	for i, p := range app.works {
		if p == nil {
			continue
		}
		done := p()
		if done {
			app.works = append(app.works[:i], app.works[i+1:]...)
		}
		return true
	}
	return false
}

// --- main loop --------------------------------------------------------------------

// Quit ends MainLoop with the given status.
func (app *App) Quit(code int) {
	app.quit = true
	app.quitCode = code
}

// Quitting reports whether Quit has been called.
func (app *App) Quitting() bool { return app.quit }

// workProcPark is the idle interval after which a pending work proc
// runs.
const workProcPark = 50 * time.Millisecond

// MainLoop is XtAppMainLoop: dispatch X events, run posted closures,
// fire timers, read the alternate input, and run work procs when idle,
// until Quit. It returns the exit status passed to Quit. Every pass
// gives the input a read attempt and runs what is posted, so neither
// timers nor posts can starve the other sources.
func (app *App) MainLoop() int {
	app.loopGoID.Store(goid())
	defer app.loopGoID.Store(0)
	for !app.quit {
		app.Pump()
		deadline, fired := app.runDueTimers()
		if app.quit {
			break
		}
		if fired {
			// Timers ran: only poll, since they may have queued events.
			deadline = time.Now()
		} else if len(app.works) > 0 {
			if park := time.Now().Add(workProcPark); deadline.IsZero() || park.Before(deadline) {
				deadline = park
			}
		}
		var timedOut bool
		if in := app.input; in != nil {
			timedOut = app.readInput(in, deadline)
		} else {
			timedOut = app.idle(deadline)
		}
		if timedOut {
			app.runOneWorkProc()
		}
	}
	app.Pump()
	return app.quitCode
}

// idle waits without an input for a posted closure or the deadline
// (zero: none) and reports whether the deadline passed with nothing
// posted. One timer is reused across waits; go.mod's go 1.22 line
// selects the pre-1.23 buffered timer channel, so a timer stopped after
// firing holds a value that must be drained before the next Reset.
func (app *App) idle(deadline time.Time) bool {
	if deadline.IsZero() {
		fn := <-app.posted
		fn()
		app.runPosted()
		return false
	}
	d := time.Until(deadline)
	if d <= 0 {
		return !app.runPosted()
	}
	t := app.idleTimer
	if t == nil {
		t = time.NewTimer(d)
		app.idleTimer = t
	} else {
		t.Reset(d)
	}
	select {
	case fn := <-app.posted:
		if !t.Stop() {
			<-t.C
		}
		fn()
		app.runPosted()
		return false
	case <-t.C:
		return true
	}
}

// runPosted runs every immediately-available posted closure and
// reports whether there was any.
func (app *App) runPosted() bool {
	ran := false
	for {
		select {
		case fn := <-app.posted:
			fn()
			ran = true
		default:
			return ran
		}
	}
}

// Sync processes posted closures and events until both are idle — the
// deterministic test helper (no timers fire). While it runs, the
// calling goroutine is the loop for Post's full-queue check.
func (app *App) Sync() {
	prev := app.loopGoID.Swap(goid())
	defer app.loopGoID.Store(prev)
	for {
		app.Pump()
		select {
		case fn := <-app.posted:
			fn()
		default:
			return
		}
	}
}
