package frontend

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wafe/internal/frontend/faultio"
)

// wakeReader injects the read-deadline errors the event loop sees when
// a timer is due or a Post wakes it: before each Read whose bit is set
// in mask (read count mod 64), it fails with os.ErrDeadlineExceeded
// instead of reading. Two wake-ups never come back to back, so the
// stream always makes progress.
type wakeReader struct {
	r     io.Reader
	mask  uint64
	reads int
	woke  bool
}

func (w *wakeReader) Read(p []byte) (int, error) {
	w.reads++
	if !w.woke && w.mask>>(w.reads%64)&1 != 0 {
		w.woke = true
		return 0, os.ErrDeadlineExceeded
	}
	w.woke = false
	return w.r.Read(p)
}

// refLines states the line-limit rule directly: split after each
// newline, cut each line (terminator included) to max bytes, strip a
// surviving "\n" or "\r\n", and keep a non-empty unterminated tail.
func refLines(data []byte, max int) []string {
	var out []string
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line = data[:i+1]
		}
		data = data[len(line):]
		if len(line) > max {
			line = line[:max]
		}
		s := string(line)
		if strings.HasSuffix(s, "\n") {
			s = strings.TrimSuffix(s[:len(s)-1], "\r")
		}
		out = append(out, s)
	}
	return out
}

// FuzzLineReader: whatever the bytes, however reads fragment them, and
// wherever deadline wake-ups interrupt the reads, the protocol line
// reader must deliver exactly the reference split under the
// truncate-and-resync rule, then EOF. The seed corpus holds every demo
// script and the bufio-boundary line sizes.
func FuzzLineReader(f *testing.F) {
	const budget = DefaultLineLimit + 4096
	demos, err := filepath.Glob("../../demos/*.wafe")
	if err != nil || len(demos) == 0 {
		f.Fatalf("no demo scripts to seed from: %v", err)
	}
	for _, p := range demos {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, uint32(budget), uint16(4096), uint64(0))
		f.Add(data, uint32(40), uint16(7), uint64(0x5555_5555_5555_5555))
	}
	var boundaries []byte
	for i, n := range []int{4095, 4096, 4097, 20_000} {
		boundaries = append(boundaries, strings.Repeat(string(rune('a'+i)), n)...)
		boundaries = append(boundaries, '\n')
	}
	for _, frag := range []uint16{1, 1000, 4096, 5000} {
		f.Add(boundaries, uint32(budget), frag, uint64(0x9249_2492_4924_9249))
	}
	f.Add(boundaries, uint32(4096), uint16(3000), uint64(0xffff_ffff_ffff_ffff))
	f.Add([]byte("%echo a\r\n\r\nno newline at the end"), uint32(6), uint16(2), uint64(0xf0f0))

	f.Fuzz(func(t *testing.T, data []byte, max uint32, frag uint16, wakes uint64) {
		limit := int(max%(2*budget)) + 1
		r := &wakeReader{r: &faultio.ShortReader{R: bytes.NewReader(data), Max: int(frag) + 1}, mask: wakes}
		lr := newLineReader(r, limit)
		got, err := readAllLines(lr)
		if err != io.EOF {
			t.Fatalf("input ended with %v, want EOF", err)
		}
		want := refLines(data, limit)
		if len(got) != len(want) {
			t.Fatalf("limit %d: %d lines, want %d", limit, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("limit %d: line %d = %.40q (%d bytes), want %.40q (%d bytes)", limit, i, got[i], len(got[i]), want[i], len(want[i]))
			}
		}
		if line, err := lr.next(); err != io.EOF {
			t.Fatalf("after EOF: %q, %v; want EOF again and no line", line, err)
		}
	})
}

// TestSessionLineSplitAcrossWake: a command line arriving in fragments,
// with the loop woken by a Post between each, is buffered across the
// wake-ups and evaluated once, whole.
func TestSessionLineSplitAcrossWake(t *testing.T) {
	s, c, done := startSession(t, SessionConfig{})
	for _, frag := range []string{"%ec", "ho sp", "lit-line"} {
		if _, err := io.WriteString(c.conn, frag); err != nil {
			t.Fatal(err)
		}
		// net.Pipe writes return once the loop has read the bytes, so
		// the fragment is buffered by the time the Post wakes the read.
		woke := make(chan struct{})
		s.W.App.Post(func() { close(woke) })
		select {
		case <-woke:
		case <-time.After(5 * time.Second):
			t.Fatal("Post did not wake the loop blocked in its read")
		}
	}
	if _, err := io.WriteString(c.conn, "\n"); err != nil {
		t.Fatal(err)
	}
	if got := c.readLine(); got != "split-line" {
		t.Errorf("reply = %q, want \"split-line\"", got)
	}
	c.send("%quit")
	if r := waitSession(t, done); r.err != nil || r.code != 0 {
		t.Errorf("Run = %d, %v; want 0, nil", r.code, r.err)
	}
}
