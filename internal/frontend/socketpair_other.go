//go:build !unix

package frontend

import (
	"errors"
	"os"

	"wafe/internal/xt"
)

// loopInput returns the spawned backend's stdout end as the event
// loop's input. Pipes here may not be pollable (Windows anonymous
// pipes take no read deadlines), so a reader goroutine stands in for
// the poller.
func loopInput(f *os.File) xt.InputConn { return newPipeInput(f) }

// socketpair is unavailable on this platform; Spawn falls back to
// pipes, mirroring the original's "support for PIPES ... is included
// for systems without the socketpair system call".
func socketpair() (parent, child *os.File, err error) {
	return nil, nil, errors.New("socketpair not supported on this platform")
}

// closeWrite is only reached with a socketpair transport, which this
// platform never establishes; closing the whole file is a safe stub.
func closeWrite(f *os.File) error { return f.Close() }
