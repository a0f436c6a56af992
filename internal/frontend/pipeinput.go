package frontend

import (
	"io"
	"os"
	"sync"
	"time"
)

// pipeInput gives a reader that cannot take read deadlines the
// deadline behaviour the event loop waits with (xt.InputConn). A
// goroutine of its own makes the blocking reads, one chunk at a time,
// and Read waits for that chunk or the deadline, whichever comes
// first; read-ahead is one chunk beyond the pipe buffer. Spawned
// backends use it only on platforms whose pipes the runtime poller
// cannot wait on (loopInput); it is built everywhere so its test runs
// everywhere. The goroutine ends once the loop has taken the reader's
// EOF or read error.
type pipeInput struct {
	chunks <-chan pipeChunk
	rest   []byte // unread tail of the last chunk; loop-owned
	err    error  // sticky EOF or read error; loop-owned

	// mu guards deadline and changed: SetReadDeadline is also called
	// from goroutines that Post to the loop.
	mu       sync.Mutex
	deadline time.Time
	changed  chan struct{} // closed, and replaced, when deadline changes
}

type pipeChunk struct {
	b   []byte
	err error
}

func newPipeInput(r io.Reader) *pipeInput {
	chunks := make(chan pipeChunk)
	go func() {
		for {
			b := make([]byte, 4096)
			n, err := r.Read(b)
			chunks <- pipeChunk{b[:n], err}
			if err != nil {
				return
			}
		}
	}()
	return &pipeInput{chunks: chunks, changed: make(chan struct{})}
}

// SetReadDeadline sets the deadline for the pending and future Reads;
// a deadline in the past interrupts a pending one at once.
func (p *pipeInput) SetReadDeadline(t time.Time) error {
	p.mu.Lock()
	p.deadline = t
	close(p.changed)
	p.changed = make(chan struct{})
	p.mu.Unlock()
	return nil
}

// Read returns buffered data, else waits for the next chunk. Once the
// deadline passes it fails with os.ErrDeadlineExceeded, like a poller
// read, leaving the next chunk for a later call.
func (p *pipeInput) Read(b []byte) (int, error) {
	for len(p.rest) == 0 {
		if p.err != nil {
			return 0, p.err
		}
		p.mu.Lock()
		deadline, changed := p.deadline, p.changed
		p.mu.Unlock()
		var expired <-chan time.Time
		var timer *time.Timer
		if !deadline.IsZero() {
			d := time.Until(deadline)
			if d <= 0 {
				return 0, os.ErrDeadlineExceeded
			}
			timer = time.NewTimer(d)
			expired = timer.C
		}
		select {
		case c := <-p.chunks:
			p.rest, p.err = c.b, c.err
		case <-expired:
		case <-changed:
		}
		if timer != nil {
			timer.Stop()
		}
	}
	n := copy(b, p.rest)
	p.rest = p.rest[n:]
	return n, nil
}
