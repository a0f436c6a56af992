package xt

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"
)

// pipeInput attaches the read end of an OS pipe as app's input: the
// loop hands each line to handle, then handle("", true) at EOF or on a
// read error. It returns the write end; both ends close at cleanup.
func pipeInput(t *testing.T, app *App, handle func(line string, eof bool)) *os.File {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close(); r.Close() })
	br := bufio.NewReader(r)
	var buf []byte
	if err := app.SetInput(r, func() bool {
		b, err := br.ReadBytes('\n')
		buf = append(buf, b...)
		switch {
		case err == nil:
			handle(string(buf[:len(buf)-1]), false)
			buf = buf[:0]
			return true
		case errors.Is(err, os.ErrDeadlineExceeded):
			return true
		}
		handle("", true)
		return false
	}); err != nil {
		t.Fatal(err)
	}
	return w
}

// runLoop starts app's MainLoop and returns a function that waits for
// it to quit.
func runLoop(t *testing.T, app *App) (wait func(what string)) {
	t.Helper()
	done := make(chan int, 1)
	go func() { done <- app.MainLoop() }()
	return func(what string) {
		t.Helper()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("MainLoop did not quit: %s", what)
		}
	}
}

// waitBlocked waits until the loop is parked in its input read.
func waitBlocked(t *testing.T, app *App) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		app.wakeMu.Lock()
		blocked := app.blocked != nil
		app.wakeMu.Unlock()
		if blocked {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("loop never blocked in its input read")
		}
		time.Sleep(time.Millisecond)
	}
}

// postBurst posts perPoster closures from each of posters goroutines
// to a loop blocked in its input read, then a quit, and returns the
// longest delay from a Post call to its closure running.
func postBurst(t *testing.T, app *App, wait func(string), posters, perPoster int) (ran int, slowest time.Duration) {
	t.Helper()
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPoster; i++ {
				posted := time.Now()
				app.Post(func() {
					ran++
					if d := time.Since(posted); d > slowest {
						slowest = d
					}
				})
			}
		}()
	}
	posted := make(chan struct{})
	go func() { wg.Wait(); close(posted) }()
	select {
	case <-posted:
	case <-time.After(10 * time.Second):
		t.Fatal("Posts blocked: the loop was never woken to drain the queue")
	}
	app.Post(func() { app.Quit(0) })
	wait("after the post burst")
	return ran, slowest
}

// TestPostFromLoopWithFullQueue: Post called on the event-loop
// goroutine with the queue at capacity must run the closure inline
// instead of block-sending — the loop cannot drain the queue while it
// is the one waiting on it.
func TestPostFromLoopWithFullQueue(t *testing.T) {
	app := NewTestApp("wafe")
	ran := false
	app.Post(func() {
		// We are on the loop goroutine: fill the queue to capacity so
		// the next Post hits the full-queue path.
		for i := 0; i < cap(app.posted); i++ {
			app.posted <- func() {}
		}
		app.Post(func() {
			ran = true
			app.Quit(0)
		})
	})
	done := make(chan int, 1)
	go func() { done <- app.MainLoop() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("MainLoop deadlocked: Post from the loop goroutine blocked on its own queue")
	}
	if !ran {
		t.Error("posted closure never ran")
	}
}

// TestPostFromReaderWithFullQueueBlocks: off-loop senders must still
// block (not drop, not run inline on the wrong goroutine) and be
// drained in order.
func TestPostFromReaderWithFullQueue(t *testing.T) {
	app := NewTestApp("wafe")
	const extra = 64
	total := cap(app.posted) + extra
	seen := 0
	go func() {
		for i := 0; i < total; i++ {
			app.Post(func() { seen++ })
		}
		app.Post(func() { app.Quit(0) })
	}()
	done := make(chan int, 1)
	go func() { done <- app.MainLoop() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("MainLoop did not quit")
	}
	if seen != total {
		t.Errorf("ran %d closures, want %d", seen, total)
	}
}

// TestPostFunnelSerializesSessionState pins the cross-goroutine idioms
// wafevet's sessionowner rule sanctions: session-owned state (the
// widget tree) is only ever touched via App.Post or the loop's own
// input read step (SetInput), both of which run on the loop goroutine.
// Many producers hammer one widget concurrently while input lines
// arrive; under -race this proves the funnel serializes every access
// without any locking in xt itself.
func TestPostFunnelSerializesSessionState(t *testing.T) {
	app := NewTestApp("wafe")
	top := newShell(t, app)
	w, err := app.CreateWidget("l", testLabelClass, top, nil, true)
	if err != nil {
		t.Fatalf("create label: %v", err)
	}

	const posters, perPoster, inputLines = 4, 50, 50
	want := posters*perPoster + inputLines
	touches := 0
	touch := func(tag string, i int) func() {
		return func() {
			w.SetResourceValue("label", fmt.Sprintf("%s-%d", tag, i))
			_ = w.Str("label") // read back on the loop, same funnel
			if touches++; touches == want {
				app.Quit(0)
			}
		}
	}

	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPoster; i++ {
				app.Post(touch(fmt.Sprintf("post%d", p), i))
			}
		}(p)
	}

	in := pipeInput(t, app, func(line string, eof bool) {
		if !eof {
			touch("input", len(line))()
		}
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < inputLines; i++ {
			fmt.Fprintf(in, "line %d\n", i)
		}
	}()

	done := make(chan int, 1)
	go func() { done <- app.MainLoop() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("MainLoop did not quit after all funnel deliveries")
	}
	wg.Wait()
	if touches != want {
		t.Errorf("loop observed %d touches, want %d", touches, want)
	}
}

// TestTimerRemovedBySiblingInBatch: XtRemoveTimeOut guarantees a
// removed timeout never fires — including removal by an earlier timer
// callback in the same expired batch, after runDueTimers has already
// collected both.
func TestTimerRemovedBySiblingInBatch(t *testing.T) {
	app := NewTestApp("wafe")
	var t2 *Timer
	t1Fired, t2Fired := false, false
	app.AddTimeout(1*time.Millisecond, func() {
		t1Fired = true
		t2.Remove()
	})
	t2 = app.AddTimeout(2*time.Millisecond, func() { t2Fired = true })
	app.AddTimeout(50*time.Millisecond, func() { app.Quit(0) })
	// Let both deadlines expire before the loop starts so a single
	// runDueTimers pass collects them into one due batch.
	time.Sleep(20 * time.Millisecond)
	done := make(chan int, 1)
	go func() { done <- app.MainLoop() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("MainLoop did not quit")
	}
	if !t1Fired {
		t.Error("first timer did not fire")
	}
	if t2Fired {
		t.Error("timer removed by a sibling in the same due batch still fired")
	}
}

// TestPostFromManyWhileBlockedInRead: with no input arriving, the loop
// is parked in its input read; Posts from 8 goroutines must each wake
// it, so every closure runs and none waits for a timeout.
func TestPostFromManyWhileBlockedInRead(t *testing.T) {
	app := NewTestApp("wafe")
	pipeInput(t, app, func(string, bool) { t.Error("no input was written") })
	wait := runLoop(t, app)
	waitBlocked(t, app)
	ran, slowest := postBurst(t, app, wait, 8, 200)
	if ran != 8*200 {
		t.Errorf("ran %d closures, want %d", ran, 8*200)
	}
	if slowest > 50*time.Millisecond {
		t.Errorf("slowest Post ran after %v, want none past 50ms", slowest)
	}
}

// TestPostFromManyWithFullQueueWhileBlockedInRead: the posted queue
// fills up while the loop is parked in its input read (the filler
// bypasses Post, so nothing woke it). A Post that finds the queue full
// must wake the loop before blocking on the send, or it deadlocks
// against the read.
func TestPostFromManyWithFullQueueWhileBlockedInRead(t *testing.T) {
	app := NewTestApp("wafe")
	pipeInput(t, app, func(string, bool) { t.Error("no input was written") })
	wait := runLoop(t, app)
	waitBlocked(t, app)
	filled := 0
	for i := 0; i < cap(app.posted); i++ {
		app.posted <- func() { filled++ }
	}
	ran, slowest := postBurst(t, app, wait, 8, 200)
	if filled != cap(app.posted) || ran != 8*200 {
		t.Errorf("ran %d queued and %d posted closures, want %d and %d", filled, ran, cap(app.posted), 8*200)
	}
	if slowest > 50*time.Millisecond {
		t.Errorf("slowest Post ran after %v, want none past 50ms", slowest)
	}
}

// TestTimerFiresWhileBlockedInRead: a timeout fires on time while the
// loop is parked in its input read (the read deadline follows the
// earliest timer), a removed timer never fires, and the input stays
// attached and still delivers afterwards.
func TestTimerFiresWhileBlockedInRead(t *testing.T) {
	app := NewTestApp("wafe")
	var lines []string
	in := pipeInput(t, app, func(line string, eof bool) {
		if !eof {
			lines = append(lines, line)
			app.Quit(0)
		}
	})
	start := time.Now()
	var firedAfter time.Duration
	removedFired := false
	app.AddTimeout(5*time.Millisecond, func() {
		firedAfter = time.Since(start)
		fmt.Fprintln(in, "after the timer")
	})
	app.AddTimeout(2*time.Millisecond, func() { removedFired = true }).Remove()
	app.AddTimeout(8*time.Millisecond, func() {}).Remove()
	runLoop(t, app)("after the timer and the line")
	if firedAfter < 5*time.Millisecond || firedAfter > time.Second {
		t.Errorf("5ms timer fired after %v", firedAfter)
	}
	if removedFired {
		t.Error("a removed timer fired")
	}
	if len(lines) != 1 || lines[0] != "after the timer" {
		t.Errorf("input delivered %q after the timer, want one line", lines)
	}
}

// TestTimerDeadlineResetAfterWake: a wake-up leaves the read deadline
// in the past. The next wait must reset it: the loop has to park in the
// read again rather than spin on immediate timeouts.
func TestTimerDeadlineResetAfterWake(t *testing.T) {
	app := NewTestApp("wafe")
	reads := 0
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { w.Close(); r.Close() }()
	buf := make([]byte, 64)
	if err := app.SetInput(r, func() bool {
		reads++
		_, err := r.Read(buf)
		return err == nil || errors.Is(err, os.ErrDeadlineExceeded)
	}); err != nil {
		t.Fatal(err)
	}
	wait := runLoop(t, app)
	waitBlocked(t, app)
	var before int
	app.Post(func() { before = reads })
	waitBlocked(t, app)
	time.Sleep(20 * time.Millisecond)
	var after int
	app.Post(func() { after = reads; app.Quit(0) })
	wait("after two wakes")
	if after-before > 2 {
		t.Errorf("%d reads in 20ms after a wake; the loop spun on a stale deadline", after-before)
	}
}

// TestTimerFiresAfterPostsWhileIdle: without an input the loop waits on
// one reused timer. Posts that end waits early must leave it able to
// fire the pending timeout on time, and the loop then blocks with no
// timeout at all until the next Post.
func TestTimerFiresAfterPostsWhileIdle(t *testing.T) {
	app := NewTestApp("wafe")
	start := time.Now()
	var firedAfter time.Duration
	fired := make(chan struct{})
	app.AddTimeout(20*time.Millisecond, func() {
		firedAfter = time.Since(start)
		close(fired)
	})
	wait := runLoop(t, app)
	posts := 0
	for i := 0; i < 5; i++ {
		app.Post(func() { posts++ })
		time.Sleep(time.Millisecond)
	}
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("the timeout never fired after the posts")
	}
	app.Post(func() { app.Quit(0) })
	wait("after the timer and the final Post")
	if posts != 5 {
		t.Errorf("ran %d posted closures, want 5", posts)
	}
	if firedAfter < 20*time.Millisecond || firedAfter > time.Second {
		t.Errorf("20ms timer fired after %v", firedAfter)
	}
}

// TestPostFromFloodStillReadsInput: goroutines that post without pause
// keep a closure pending on nearly every pass of the loop. The loop
// must still read its input on each pass, so lines written meanwhile
// arrive, up to the one that quits.
func TestPostFromFloodStillReadsInput(t *testing.T) {
	app := NewTestApp("wafe")
	var lines []string
	in := pipeInput(t, app, func(line string, eof bool) {
		if eof {
			return
		}
		lines = append(lines, line)
		if line == "quit" {
			app.Quit(0)
		}
	})
	const flooders = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < flooders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					app.Post(func() {})
				}
			}
		}()
	}
	flooded := make(chan struct{})
	go func() { wg.Wait(); close(flooded) }()
	wait := runLoop(t, app)
	for i := 0; i < 20; i++ {
		fmt.Fprintf(in, "line-%d\n", i)
	}
	fmt.Fprintln(in, "quit")
	wait("the input was never read under the post flood")
	// The stopped loop no longer drains the queue; drain it here so a
	// Post blocked on the full queue returns.
	close(stop)
	for drained := false; !drained; {
		select {
		case <-app.posted:
		case <-flooded:
			drained = true
		}
	}
	if len(lines) != 21 || lines[20] != "quit" {
		t.Errorf("read %d lines under the post flood, want 21 ending in quit: %q", len(lines), lines)
	}
}
