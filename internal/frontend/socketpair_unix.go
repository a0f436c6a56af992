//go:build unix

package frontend

import (
	"os"
	"syscall"

	"wafe/internal/xt"
)

// loopInput returns the spawned backend's stdout end as the event
// loop's input. Pipe and socket ends here are pollable and take read
// deadlines themselves.
func loopInput(f *os.File) xt.InputConn { return f }

// socketpair returns the two ends of an AF_UNIX stream socket pair —
// the paper's preferred program-to-program transport. The parent end
// is non-blocking, so os.NewFile registers it with the runtime poller
// and it accepts the read deadlines the event loop waits with; the
// child end stays blocking for the backend's stdio.
func socketpair() (parent, child *os.File, err error) {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		return nil, nil, err
	}
	syscall.CloseOnExec(fds[0])
	if err := syscall.SetNonblock(fds[0], true); err != nil {
		syscall.Close(fds[0])
		syscall.Close(fds[1])
		return nil, nil, err
	}
	return os.NewFile(uintptr(fds[0]), "wafe-sock-parent"),
		os.NewFile(uintptr(fds[1]), "wafe-sock-child"), nil
}

// closeWrite shuts down the write half of the parent's socketpair end:
// the backend's stdin reaches EOF while its stdout stays readable.
func closeWrite(f *os.File) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.Shutdown(int(fd), syscall.SHUT_WR)
	}); err != nil {
		return err
	}
	return serr
}
