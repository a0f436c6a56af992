package frontend

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"wafe/internal/core"
	"wafe/internal/frontend/faultio"
)

// fakeConn adapts a test reader that never blocks (strings.Reader, the
// faultio readers) to the event loop's input type. Its reads return at
// once, so there is never a blocked read for a deadline to interrupt;
// data, EOF and read errors pass through unchanged, so EOF and a
// failure stay distinct.
type fakeConn struct{ io.Reader }

func (fakeConn) SetReadDeadline(time.Time) error { return nil }

// readAllLines drains lr the way the loop's read step does: deadline
// errors only interrupt, any other error ends the input. It returns the
// lines delivered and the terminal error.
func readAllLines(lr *lineReader) ([]string, error) {
	var lines []string
	for {
		line, err := lr.next()
		switch {
		case err == nil:
			lines = append(lines, line)
		case errors.Is(err, os.ErrDeadlineExceeded):
		default:
			return lines, err
		}
	}
}

// TestOverlongLineResync: a line exceeding the reader budget must be
// reported and skipped, with the pipe loop resynchronizing at the next
// newline. The bufio.Scanner-based loop this replaces hit ErrTooLong
// instead and silently quit, dropping every later command.
func TestOverlongLineResync(t *testing.T) {
	w := core.NewTest()
	term := &syncBuffer{}
	f := New(w, &Options{Prefix: '%', LineLimit: 100}, term)
	outR, outW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	inR, inW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { outW.Close(); outR.Close(); inW.Close(); inR.Close() }()
	f.AttachApp(outR, inW)
	stop := run(t, f)
	defer stop()

	send(outW, strings.Repeat("x", 10_000)+"\n")
	send(outW, "%echo alive\n")

	br := bufio.NewReader(inR)
	if got := readLine(t, br); got != "alive" {
		t.Errorf("after overlong line got %q, want \"alive\"", got)
	}
	var overlong int
	post(t, f, func() { overlong = f.OverlongLines })
	if overlong != 1 {
		t.Errorf("OverlongLines = %d, want 1", overlong)
	}
	if !strings.Contains(term.String(), "exceeds 100 bytes") {
		t.Errorf("overlong line not reported; terminal:\n%s", term.String())
	}
}

// TestReadErrorReported: a failing command pipe is an error, not a
// clean EOF — it must be reported on the terminal and counted. The
// scanner loop swallowed sc.Err() and quit as if the backend had
// exited normally.
func TestReadErrorReported(t *testing.T) {
	w := core.NewTest()
	m := w.EnableObservability()
	term := &syncBuffer{}
	f := New(w, &Options{Prefix: '%', LineLimit: DefaultLineLimit}, term)
	appIn := &syncBuffer{}
	r := &faultio.FlakyReader{
		R:   strings.NewReader("%echo before\n%echo never-delivered\n"),
		N:   len("%echo before\n"),
		Err: errors.New("injected pipe failure"),
	}
	f.AttachApp(fakeConn{r}, appIn)
	done := make(chan int, 1)
	go func() { done <- f.W.App.MainLoop() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("main loop did not quit on the read error")
	}
	// The line before the failure point was still handled.
	if !strings.Contains(appIn.String(), "before") {
		t.Errorf("line before the failure lost; backend stdin: %q", appIn.String())
	}
	if strings.Contains(appIn.String(), "never-delivered") {
		t.Errorf("line after the failure must not arrive; backend stdin: %q", appIn.String())
	}
	if f.ReadErrors != 1 {
		t.Errorf("ReadErrors = %d, want 1", f.ReadErrors)
	}
	if got := m.Frontend.ReadErrors.Load(); got != 1 {
		t.Errorf("frontend.read_errors = %d, want 1", got)
	}
	if !strings.Contains(term.String(), "read error on command pipe") ||
		!strings.Contains(term.String(), "injected pipe failure") {
		t.Errorf("read error not reported; terminal:\n%s", term.String())
	}
}

// TestReadCommandLinesFragmented: line assembly must be independent of
// how the kernel fragments reads.
func TestReadCommandLinesFragmented(t *testing.T) {
	w := core.NewTest()
	term := &syncBuffer{}
	f := New(w, &Options{Prefix: '%', LineLimit: DefaultLineLimit}, term)
	appIn := &syncBuffer{}
	r := &faultio.ShortReader{R: strings.NewReader("%echo one\npassthrough line\n%echo two\n"), Max: 3}
	f.AttachApp(fakeConn{r}, appIn)
	done := make(chan int, 1)
	go func() { done <- f.W.App.MainLoop() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("main loop did not quit on EOF")
	}
	if got := appIn.String(); got != "one\ntwo\n" {
		t.Errorf("backend stdin = %q, want \"one\\ntwo\\n\"", got)
	}
	if !strings.Contains(term.String(), "passthrough line") {
		t.Errorf("passthrough lost; terminal:\n%s", term.String())
	}
}

// TestBalancedTrailingBackslash: a trailing backslash is a Tcl line
// continuation, so the command is incomplete — balanced() treating it
// as complete made interactive mode evaluate half a command.
func TestBalancedTrailingBackslash(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		{`set x \`, false},      // continuation: wait for more
		{`set x \\`, true},      // escaped backslash: complete
		{"set x \\\nabc", true}, // continuation already joined
		{`set x {a b}`, true},   //
		{`set x {a \`, false},   // open brace dominates anyway
		{`set x "a \`, false},   // open quote dominates anyway
		{`set x \;`, true},      // escaped separator: complete
	}
	for _, c := range cases {
		if got := balanced(c.in); got != c.want {
			t.Errorf("balanced(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestInteractiveLineContinuation: a backslash-newline split command is
// accumulated across prompts and evaluated once, whole.
func TestInteractiveLineContinuation(t *testing.T) {
	w := core.NewTest()
	term := &syncBuffer{}
	f := New(w, &Options{Prefix: '%', LineLimit: DefaultLineLimit}, term)
	in := strings.NewReader("set \\\nx 5\nquit\n")
	if err := f.RunInteractive(in, nil); err != nil {
		t.Fatal(err)
	}
	if v, err := w.Eval("set x"); err != nil || v != "5" {
		t.Errorf("x = %q, %v; want \"5\" (continuation evaluated as one command)", v, err)
	}
	if strings.Contains(term.String(), "error:") {
		t.Errorf("continuation halves evaluated separately; terminal:\n%s", term.String())
	}
}

// TestReadCommandLinesBoundaries: the line reader's buffer is the
// bufio default (4 KiB), so lines at and around that size, and lines
// many times longer, must arrive whole however the pipe fragments
// them; the line limit must accept a line of exactly LineLimit bytes,
// and a line past the reader's budget is counted overlong and skipped
// with the reader resynchronizing on the next line.
func TestReadCommandLinesBoundaries(t *testing.T) {
	var want []string
	var src strings.Builder
	for i, n := range []int{4095, 4096, 4097, 20_000} {
		line := strings.Repeat(string(rune('a'+i)), n)
		want = append(want, line)
		src.WriteString(line + "\n")
	}
	for _, frag := range []int{1, 1000, 4096, 5000} {
		r := &faultio.ShortReader{R: strings.NewReader(src.String()), Max: frag}
		got, err := readAllLines(newLineReader(r, DefaultLineLimit+4096))
		if err != io.EOF || len(got) != len(want) {
			t.Fatalf("fragments of %d: %d lines, then %v; want %d lines, then EOF", frag, len(got), err, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("fragments of %d: line %d is %d bytes, want %d intact bytes", frag, i, len(got[i]), len(want[i]))
			}
		}
	}

	w := core.NewTest()
	term := &syncBuffer{}
	f := New(w, &Options{Prefix: '%', LineLimit: DefaultLineLimit}, term)
	appIn := &syncBuffer{}
	atLimit := "%set v " + strings.Repeat("x", DefaultLineLimit-len("%set v "))
	pastBudget := "%set w " + strings.Repeat("y", DefaultLineLimit+4097-len("%set w "))
	in := atLimit + "\n%echo [string length $v]\n" + pastBudget + "\n%echo resync\n"
	f.AttachApp(fakeConn{&faultio.ShortReader{R: strings.NewReader(in), Max: 3000}}, appIn)
	done := make(chan int, 1)
	go func() { done <- f.W.App.MainLoop() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("main loop did not quit on EOF")
	}
	wantOut := fmt.Sprintf("%d\nresync\n", DefaultLineLimit-len("%set v "))
	if got := appIn.String(); got != wantOut {
		t.Errorf("backend stdin = %q, want %q", got, wantOut)
	}
	if f.OverlongLines != 1 {
		t.Errorf("OverlongLines = %d, want 1", f.OverlongLines)
	}
	if v, err := w.Eval("info exists w"); err != nil || v != "0" {
		t.Errorf("info exists w = %q, %v; the overlong line must not be evaluated", v, err)
	}
}

// noDeadlineConn is an input that cannot take read deadlines, like a
// regular file or a blocking descriptor the runtime poller does not own.
type noDeadlineConn struct{ io.Reader }

func (noDeadlineConn) SetReadDeadline(time.Time) error { return os.ErrNoDeadline }

// TestReadErrorOnInputWithoutDeadlines: the loop could neither time
// out nor be woken in a read on an input without deadlines, so
// attaching one fails as a command-pipe read error instead of parking
// the loop there.
func TestReadErrorOnInputWithoutDeadlines(t *testing.T) {
	w := core.NewTest()
	term := &syncBuffer{}
	f := New(w, &Options{Prefix: '%', LineLimit: DefaultLineLimit}, term)
	appIn := &syncBuffer{}
	f.AttachApp(noDeadlineConn{strings.NewReader("%echo never-read\n")}, appIn)
	done := make(chan int, 1)
	go func() { done <- f.W.App.MainLoop() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("main loop did not quit on an input without deadlines")
	}
	if f.ReadErrors != 1 || appIn.String() != "" {
		t.Errorf("ReadErrors = %d, backend stdin %q; want 1 and nothing read", f.ReadErrors, appIn.String())
	}
	if !strings.Contains(term.String(), "read error on command pipe") {
		t.Errorf("read error not reported; terminal:\n%s", term.String())
	}
}

// TestTimerDueEveryPassStillReadsInput: a timeout that re-arms itself
// with 0 ms is due on every pass of the loop. The loop must still read
// the command pipe on each pass, so the lines sent meanwhile, and the
// final %quit, are all handled.
func TestTimerDueEveryPassStillReadsInput(t *testing.T) {
	f, appOut, appIn, term, cleanup := newPipedFrontend(t)
	defer cleanup()
	done := make(chan int, 1)
	go func() { done <- f.W.App.MainLoop() }()
	send(appOut, "%proc tick {} {addTimeOut 0 tick}\n%tick\n")
	for i := 0; i < 20; i++ {
		sendf(appOut, "%%echo line-%d\n", i)
		if got, want := readLine(t, appIn), fmt.Sprintf("line-%d", i); got != want {
			t.Fatalf("backend read %q, want %q; terminal:\n%s", got, want, term.String())
		}
	}
	send(appOut, "%quit\n")
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the final quit line was never read while the timer re-armed itself")
	}
}
