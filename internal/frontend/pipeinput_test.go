package frontend

import (
	"errors"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"wafe/internal/core"
)

// TestPipeInputDeadlines: the adapter for pipes without read deadlines
// must time out a pending Read at its deadline, let another goroutine
// interrupt it with a deadline in the past, deliver data that arrives
// later intact, and keep EOF and a read error distinct and sticky.
func TestPipeInputDeadlines(t *testing.T) {
	r, w := io.Pipe()
	p := newPipeInput(r)
	buf := make([]byte, 64)

	start := time.Now()
	_ = p.SetReadDeadline(start.Add(20 * time.Millisecond))
	if _, err := p.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Read past its deadline: %v, want os.ErrDeadlineExceeded", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("Read timed out after %v, before its 20ms deadline", d)
	}

	_ = p.SetReadDeadline(time.Time{})
	go func() {
		time.Sleep(10 * time.Millisecond)
		_ = p.SetReadDeadline(time.Unix(0, 1))
	}()
	if _, err := p.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Read woken by a past deadline: %v, want os.ErrDeadlineExceeded", err)
	}

	_ = p.SetReadDeadline(time.Time{})
	go func() { _, _ = io.WriteString(w, "hello\n") }()
	if n, err := io.ReadFull(p, buf[:6]); err != nil || string(buf[:n]) != "hello\n" {
		t.Fatalf("Read after the wakes = %q, %v; want \"hello\\n\"", buf[:n], err)
	}

	w.CloseWithError(errors.New("broken pipe"))
	for i := 0; i < 2; i++ {
		if _, err := p.Read(buf); err == nil || err == io.EOF || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("Read after a failure = %v, want the read error", err)
		}
	}
	r2, w2 := io.Pipe()
	p2 := newPipeInput(r2)
	w2.Close()
	for i := 0; i < 2; i++ {
		if _, err := p2.Read(buf); err != io.EOF {
			t.Fatalf("Read after a clean close = %v, want io.EOF", err)
		}
	}
}

// TestPipeInputAsLoopInput: a frontend whose command pipe takes no
// read deadlines of its own runs through the adapter: a timer fires
// while the loop waits in the read, lines arrive whole, and EOF ends
// the session.
func TestPipeInputAsLoopInput(t *testing.T) {
	w := core.NewTest()
	term := &syncBuffer{}
	f := New(w, &Options{Prefix: '%', LineLimit: DefaultLineLimit}, term)
	r, pw := io.Pipe()
	appIn := &syncBuffer{}
	f.AttachApp(newPipeInput(r), appIn)
	fired := make(chan struct{})
	f.W.App.AddTimeout(5*time.Millisecond, func() { close(fired) })
	done := make(chan int, 1)
	go func() { done <- f.W.App.MainLoop() }()
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired while the loop waited in the read")
	}
	_, _ = io.WriteString(pw, "%echo one\n%ec")
	_, _ = io.WriteString(pw, "ho two\n")
	pw.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("main loop did not quit at EOF")
	}
	if got := appIn.String(); !strings.Contains(got, "one\ntwo\n") {
		t.Errorf("backend stdin %q, want both lines", got)
	}
}
