package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	// setupRounds is how many fresh wafe processes a run spawns to
	// time set-up; the median over the quiet rounds is reported and the
	// last process serves the timed phase.
	setupRounds = 81
	// opTimeout bounds one op's wait for its reply.
	opTimeout = 10 * time.Second
	// clockTicks is the /proc/<pid>/stat utime/stime unit (USER_HZ,
	// 100 on every Linux configuration Go supports).
	clockTicks = 100
)

// server is one `wafe --serve unix:<sock>` child process.
type server struct {
	cmd     *exec.Cmd
	sock    string
	done    chan struct{}
	waitErr error

	stopOnce sync.Once
	stopErr  error
}

func startServer(bin, sock string, log *os.File, procs int) (*server, error) {
	if err := os.Remove(sock); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	cmd := exec.Command(bin, "--serve", "unix:"+sock)
	cmd.Stdout = log
	cmd.Stderr = log
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	// The server dies with linebench, so a killed run leaves no
	// listener behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start wafe: %w", err)
	}
	s := &server{cmd: cmd, sock: sock, done: make(chan struct{})}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.done)
	}()
	return s, nil
}

// dial connects once the server listens, polling the socket.
func (s *server) dial() (net.Conn, error) {
	deadline := time.Now().Add(opTimeout)
	for {
		c, err := net.Dial("unix", s.sock)
		if err == nil {
			return c, nil
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("wafe exited before accepting: %v", s.waitErr)
		default:
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dial %s: %w", s.sock, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop shuts the server down gracefully (SIGTERM drains its sessions)
// and waits for it, killing it if the drain hangs. Idempotent.
func (s *server) stop() error {
	s.stopOnce.Do(func() { s.stopErr = s.terminate() })
	return s.stopErr
}

func (s *server) terminate() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(opTimeout):
		_ = s.cmd.Process.Kill()
		<-s.done
		return fmt.Errorf("wafe ignored SIGTERM for %v", opTimeout)
	}
	_ = os.Remove(s.sock)
	var ee *exec.ExitError
	if s.waitErr != nil && !errors.As(s.waitErr, &ee) {
		return s.waitErr
	}
	if code := s.cmd.ProcessState.ExitCode(); code != 0 {
		return fmt.Errorf("wafe exited with status %d", code)
	}
	return nil
}

// cpuTicks reads utime+stime of a process from /proc/<pid>/stat.
func cpuTicks(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return ut + st, nil
}

// stealTicks reads the machine-wide steal time from /proc/stat: time
// this virtual machine's CPUs were runnable but the hypervisor ran
// someone else.
func stealTicks() (int64, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	return strconv.ParseInt(f[8], 10, 64)
}

// peakRSSKB reads VmHWM of a process from /proc/<pid>/status.
func peakRSSKB(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// markEvery is how often the timed phase records the server's CPU time
// and the ops completed so far; segments are built from these marks.
const markEvery = 500 * time.Millisecond

// mark is the state of the timed phase at one instant.
type mark struct {
	t     time.Time
	cpu   int64 // server utime+stime, clock ticks
	ops   int   // successful ops so far
	steal int64 // CPU time the hypervisor gave other guests, clock ticks
}

// e2eResult is one untraced out-of-process run.
type e2eResult struct {
	setupS     []float64            // seconds per set-up round
	setupSteal []int64              // machine-wide steal ticks during each round
	byKind     map[string][]float64 // latency of each successful op, by op kind
	opUS       []float64            // latency of each successful op
	marks      []mark               // at the start, every markEvery, and at the end
	rssKB      int64
	attempted  int
	failures

	pid      int
	nextMark time.Time
	markErr  error
}

// tick records a mark once markEvery has passed since the last one.
func (r *e2eResult) tick(now time.Time) {
	if now.Before(r.nextMark) {
		return
	}
	r.addMark(now)
}

func (r *e2eResult) addMark(now time.Time) {
	cpu, err1 := cpuTicks(r.pid)
	steal, err2 := stealTicks()
	if err := errors.Join(err1, err2); err != nil && r.markErr == nil {
		r.markErr = err
	}
	r.marks = append(r.marks, mark{t: now, cpu: cpu, ops: len(r.opUS), steal: steal})
	r.nextMark = now.Add(markEvery)
}

// failures counts failed ops and keeps the first few descriptions.
type failures struct {
	failed   int
	problems []string
}

func (f *failures) fail(format string, args ...any) {
	f.failed++
	if len(f.problems) < 5 {
		f.problems = append(f.problems, fmt.Sprintf(format, args...))
	}
}

// client is the backend end of one serve-mode connection.
type client struct {
	conn net.Conn
	br   *bufio.Reader
}

func newClient(c net.Conn) *client {
	return &client{conn: c, br: bufio.NewReaderSize(c, 64*1024)}
}

// readLine returns the next reply line without its newline; the bytes
// are valid until the next read.
func (c *client) readLine() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return line[:len(line)-1], nil
}

func (c *client) expect(want string) error {
	line, err := c.readLine()
	if err != nil {
		return fmt.Errorf("waiting for %q: %w", want, err)
	}
	if string(line) != want {
		return fmt.Errorf("got %q, want %q", line, want)
	}
	return nil
}

func (c *client) greeting() error {
	line, err := c.readLine()
	if err != nil {
		return fmt.Errorf("greeting: %w", err)
	}
	if !bytes.HasPrefix(line, []byte("wafe session ")) {
		return fmt.Errorf("greeting %q", line)
	}
	return nil
}

// buildTree sends a workload's set-up lines and waits for their ack.
func (c *client) buildTree(wl workload) error {
	if _, err := io.WriteString(c.conn, wl.setup+"%echo ready\n"); err != nil {
		return err
	}
	return c.expect("ready")
}

// runE2E spawns wafe setupRounds times to time set-up, then drives the
// last server closed-loop for dur over one connection at a time.
func runE2E(env *benchEnv, wl workload, seed int64, dur time.Duration) (*e2eResult, error) {
	logPath := env.out("wafe-" + wl.name + ".log")
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer log.Close()
	// Relative to the shared working directory: an absolute path in a
	// deep checkout could pass the 107-byte limit of a socket address.
	sock := filepath.Join(outDir, fmt.Sprintf("wafe-%d.sock", os.Getpid()))
	res := &e2eResult{byKind: map[string][]float64{}}

	var srv *server
	var cl *client
	for round := 0; round < setupRounds; round++ {
		steal0, err := stealTicks()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		srv, err = startServer(env.wafeBin, sock, log, env.serverProcs)
		if err != nil {
			return nil, err
		}
		cl, err = setupSession(srv, wl)
		if err != nil {
			_ = srv.stop()
			return nil, fmt.Errorf("set-up round %d: %w", round, err)
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		steal1, err := stealTicks()
		if err != nil {
			_ = srv.stop()
			return nil, err
		}
		res.setupSteal = append(res.setupSteal, steal1-steal0)
		if round < setupRounds-1 || wl.perSession {
			cl.conn.Close()
		}
		if round < setupRounds-1 {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer func() { _ = srv.stop() }()

	pid := srv.cmd.Process.Pid
	res.pid = pid
	s := wl.newStream(seed)
	start := time.Now()
	res.addMark(start)
	if wl.perSession {
		churnLoop(srv, s, start.Add(dur), res)
	} else {
		closedLoop(cl, s, start.Add(dur), res)
	}
	res.addMark(time.Now())
	if res.markErr != nil {
		return nil, res.markErr
	}

	if !wl.perSession {
		if line, want, ok := s.final(); ok {
			_, err := io.WriteString(cl.conn, line+"\n")
			if err == nil {
				err = cl.expect(want)
			}
			if err != nil {
				res.fail("closing read-back: %v", err)
			}
		}
		cl.conn.Close()
	}
	if res.rssKB, err = peakRSSKB(pid); err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		res.fail("server: %v", err)
	}
	scanLog(logPath, res)
	return res, nil
}

// setupSession connects to a fresh server and readies it for the
// first op: greeted, and for steady-state workloads the widget tree
// built and acknowledged.
func setupSession(srv *server, wl workload) (*client, error) {
	conn, err := srv.dial()
	if err != nil {
		return nil, err
	}
	cl := newClient(conn)
	conn.SetDeadline(time.Now().Add(opTimeout))
	err = cl.greeting()
	if err == nil && !wl.perSession {
		err = cl.buildTree(wl)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return cl, nil
}

// closedLoop sends each op only after the previous reply arrived.
func closedLoop(cl *client, s stream, end time.Time, res *e2eResult) {
	cl.conn.SetDeadline(end.Add(opTimeout))
	for {
		if !time.Now().Before(end) {
			return
		}
		o := s.next()
		t := time.Now()
		res.attempted++
		if _, err := cl.conn.Write(o.req); err != nil {
			res.fail("op %d write: %v", res.attempted, err)
			return
		}
		line, err := cl.readLine()
		lat := time.Since(t)
		if err != nil {
			res.fail("op %d: no reply: %v", res.attempted, err)
			return
		}
		if string(line) != o.want {
			res.fail("op %d: got %q, want %q", res.attempted, line, o.want)
		} else {
			us := float64(lat.Nanoseconds()) / 1e3
			res.opUS = append(res.opUS, us)
			if o.kind != "" {
				res.byKind[o.kind] = append(res.byKind[o.kind], us)
			}
			res.tick(t.Add(lat))
		}
		if len(o.answer) > 0 {
			if _, err := cl.conn.Write(o.answer); err != nil {
				res.fail("op %d answer: %v", res.attempted, err)
				return
			}
		}
	}
}

// churnLoop runs one whole session per op: connect, greeting, build
// and realize a tree, wait for its ack (the op's latency ends here),
// quit, and wait for the server to close the connection.
func churnLoop(srv *server, s stream, end time.Time, res *e2eResult) {
	br := bufio.NewReaderSize(nil, 4096)
	for {
		if !time.Now().Before(end) {
			return
		}
		o := s.next()
		t := time.Now()
		res.attempted++
		conn, err := net.Dial("unix", srv.sock)
		if err != nil {
			res.fail("op %d dial: %v", res.attempted, err)
			return
		}
		br.Reset(conn)
		cl := &client{conn: conn, br: br}
		conn.SetDeadline(end.Add(opTimeout))
		err = cl.greeting()
		if err == nil {
			_, err = conn.Write(o.req)
		}
		if err == nil {
			err = cl.expect(o.want)
		}
		lat := time.Since(t)
		if err == nil {
			_, err = conn.Write(o.answer)
		}
		if err == nil {
			// After quit the server closes the session: anything but
			// EOF is an unexpected reply.
			var rest []byte
			rest, err = io.ReadAll(br)
			if err == nil && len(rest) > 0 {
				err = fmt.Errorf("unexpected output after quit: %q", rest)
			}
		}
		conn.Close()
		if err != nil {
			res.fail("op %d: %v", res.attempted, err)
			return
		}
		res.opUS = append(res.opUS, float64(lat.Nanoseconds())/1e3)
		res.tick(time.Now())
	}
}

// scanLog counts every diagnostic of a failed command in the server
// log as a failed op.
func scanLog(path string, res *e2eResult) {
	data, err := os.ReadFile(path)
	if err != nil {
		res.fail("server log: %v", err)
		return
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, "wafe: error") || strings.Contains(line, "panic") {
			res.fail("server log: %s", line)
		}
	}
}
