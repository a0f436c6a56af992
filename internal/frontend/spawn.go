package frontend

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// IPC selects the program-to-program transport. The paper's
// availability note: "The preferred program-to-program communication is
// done via socketpair. Support for PIPES ... is included for systems
// without the socketpair system call."
type IPC int

const (
	// IPCSocketpair is the preferred transport where available.
	IPCSocketpair IPC = iota
	// IPCPipe is the portable fallback.
	IPCPipe
)

// DefaultBackendGrace bounds each stage of the graceful-shutdown
// escalation (close stdin → SIGTERM → SIGKILL) when no --backend-grace
// was given.
const DefaultBackendGrace = 3 * time.Second

// Child is a spawned application program with its channels.
type Child struct {
	Cmd *exec.Cmd

	// Transport actually used (socketpair may fall back to pipes).
	Transport IPC

	massRead *os.File
	out      *os.File  // parent's read end of the child's stdout
	conn     *os.File  // parent end of a socketpair transport, if any
	stdin    io.Closer // parent's write end of the child's stdin (pipe transport)

	inOnce   sync.Once
	waitOnce sync.Once
	waitErr  error
}

// Spawn starts the application program as a subprocess of the frontend
// with the preferred transport, falling back to pipes.
func (f *Frontend) Spawn(program string, args []string) (*Child, error) {
	return f.SpawnIPC(program, args, IPCSocketpair)
}

// SpawnIPC starts the application program with an explicit transport
// and establishes the I/O channels of Figure 4: the child's stdout is
// read for command lines, its stdin receives event messages, stderr
// passes through, and fd 3 is the mass-transfer data channel.
func (f *Frontend) SpawnIPC(program string, args []string, ipc IPC) (*Child, error) {
	cmd := exec.Command(program, args...)
	cmd.Stderr = os.Stderr

	var appOut *os.File // child stdout → frontend
	var appIn io.Writer // frontend → child stdin
	var stdinCloser io.Closer
	var closeAfterStart []*os.File
	var parentConn *os.File
	used := IPCPipe

	if ipc == IPCSocketpair {
		if parentEnd, childEnd, err := socketpair(); err == nil {
			// One bidirectional socket carries both directions, dup'ed
			// onto the child's stdin and stdout like the original.
			cmd.Stdin = childEnd
			cmd.Stdout = childEnd
			appOut = parentEnd
			appIn = parentEnd
			parentConn = parentEnd
			closeAfterStart = append(closeAfterStart, childEnd)
			used = IPCSocketpair
		}
		// On failure fall through to pipes below.
	}
	if used == IPCPipe {
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return nil, fmt.Errorf("wafe: stdin pipe: %v", err)
		}
		// An os.Pipe read end, unlike cmd.StdoutPipe's, is the
		// parent's own file: loopInput hands it to the event loop.
		stdout, stdoutW, err := os.Pipe()
		if err != nil {
			return nil, fmt.Errorf("wafe: stdout pipe: %v", err)
		}
		cmd.Stdout = stdoutW
		closeAfterStart = append(closeAfterStart, stdoutW)
		appIn = stdin
		appOut = stdout
		stdinCloser = stdin
	}

	massRead, massWrite, err := os.Pipe()
	if err != nil {
		return nil, fmt.Errorf("wafe: mass pipe: %v", err)
	}
	cmd.ExtraFiles = []*os.File{massWrite} // fd 3 in the child
	if err := cmd.Start(); err != nil {
		massRead.Close()
		massWrite.Close()
		appOut.Close()
		for _, c := range closeAfterStart {
			c.Close()
		}
		return nil, fmt.Errorf("wafe: cannot start %q: %v", program, err)
	}
	// The parent keeps neither the child's ends nor the mass write
	// end.
	massWrite.Close()
	for _, c := range closeAfterStart {
		c.Close()
	}
	f.AttachApp(loopInput(appOut), appIn)
	f.AttachMass(massRead)
	f.SendInitCom()
	return &Child{Cmd: cmd, Transport: used, massRead: massRead, out: appOut, conn: parentConn, stdin: stdinCloser}, nil
}

// Wait reaps the child; safe to call any number of times and from
// multiple goroutines (the shutdown escalation and the supervisor both
// wait on the same child).
func (c *Child) Wait() error {
	c.waitOnce.Do(func() {
		c.waitErr = c.Cmd.Wait()
		c.massRead.Close()
		c.out.Close()
	})
	return c.waitErr
}

// CloseInput closes the frontend→backend direction so a backend
// blocked reading its stdin sees EOF. On the socketpair transport only
// the write half is shut down — the read direction stays open so any
// final output from the backend is still collected. Without this,
// Child.Wait on a backend blocked in read(stdin) deadlocks forever:
// nothing else ever closes the parent's write end.
func (c *Child) CloseInput() {
	c.inOnce.Do(func() {
		if c.conn != nil {
			_ = closeWrite(c.conn)
			return
		}
		if c.stdin != nil {
			_ = c.stdin.Close()
		}
	})
}

// Signal sends sig to the child; a no-op when the process is gone.
func (c *Child) Signal(sig os.Signal) {
	if c.Cmd.Process != nil {
		_ = c.Cmd.Process.Signal(sig)
	}
}

// Kill terminates the child.
func (c *Child) Kill() {
	if c.Cmd.Process != nil {
		_ = c.Cmd.Process.Kill()
	}
}

// Shutdown tears the child down gracefully and always reaps it: close
// its stdin (a backend blocked in read sees EOF and can exit its read
// loop), wait up to grace, escalate to SIGTERM, wait up to grace
// again, then SIGKILL. It returns Wait's result, so it cannot deadlock
// on a backend that ignores both EOF and SIGTERM.
func (c *Child) Shutdown(grace time.Duration) error {
	if grace <= 0 {
		grace = DefaultBackendGrace
	}
	c.CloseInput()
	done := make(chan error, 1)
	go func() { done <- c.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(grace):
	}
	c.Signal(syscall.SIGTERM)
	select {
	case err := <-done:
		return err
	case <-time.After(grace):
	}
	c.Kill()
	return <-done
}
