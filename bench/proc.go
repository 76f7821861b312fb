package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// outDir holds everything a run writes: binaries, temporary data
// directories, result and trace files. It is inside the benchmark's own
// path and git-ignored.
const outDir = "bench/out"

// cleanups are undone on every exit path: normal return, failure, panic
// and SIGINT/SIGTERM. Entries are child processes to stop and temporary
// directories to remove.
var cleanups struct {
	mu  sync.Mutex
	fns map[int]func()
	seq int
}

// onExit registers fn and returns a function that runs it now and
// unregisters it.
func onExit(fn func()) (done func()) {
	cleanups.mu.Lock()
	defer cleanups.mu.Unlock()
	if cleanups.fns == nil {
		cleanups.fns = map[int]func(){}
	}
	cleanups.seq++
	id := cleanups.seq
	cleanups.fns[id] = fn
	return func() {
		cleanups.mu.Lock()
		f := cleanups.fns[id]
		delete(cleanups.fns, id)
		cleanups.mu.Unlock()
		if f != nil {
			f()
		}
	}
}

// runCleanups runs what is still registered, newest first (servers before
// the directories they write into).
func runCleanups() {
	for {
		cleanups.mu.Lock()
		best := 0
		for id := range cleanups.fns {
			best = max(best, id)
		}
		f := cleanups.fns[best]
		delete(cleanups.fns, best)
		cleanups.mu.Unlock()
		if f == nil {
			return
		}
		f()
	}
}

// cleanupOnSignal makes Ctrl-C and SIGTERM stop children and remove
// temporary directories before the process exits.
func cleanupOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		runCleanups()
		os.Exit(130)
	}()
}

// tempDir creates a scratch directory under outDir that is removed on
// every exit path.
func tempDir(prefix string) (dir string, remove func(), err error) {
	if err := os.MkdirAll(filepath.Join(outDir, "tmp"), 0o755); err != nil {
		return "", nil, err
	}
	dir, err = os.MkdirTemp(filepath.Join(outDir, "tmp"), prefix)
	if err != nil {
		return "", nil, err
	}
	return dir, onExit(func() { os.RemoveAll(dir) }), nil
}

// buildServer compiles cmd/freeset-serve, unmodified, into outDir. It runs
// before any timing starts.
func buildServer() (string, error) {
	if _, err := os.Stat("cmd/freeset-serve/main.go"); err != nil {
		return "", fmt.Errorf("run from the repository root: %w", err)
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "bin", "freeset-serve"))
	if err != nil {
		return "", err
	}
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/freeset-serve").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build ./cmd/freeset-serve: %w\n%s", err, out)
	}
	return bin, nil
}

// tailBuffer keeps the last bytes a child wrote to stderr, for the
// message printed when it fails to become ready.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - 4096; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// server is one running freeset-serve child.
type server struct {
	cmd    *exec.Cmd
	addr   string
	stderr *tailBuffer
	exited chan struct{} // closed once Wait returned
	unreg  func()
	grace  time.Duration // SIGTERM to SIGKILL
}

const (
	readyTimeout = 60 * time.Second
	stopGrace    = 10 * time.Second
)

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// launch starts bin listening on addr. The child is stopped on every exit
// path of this program until stop or kill has reaped it.
func launch(bin, addr string, args ...string) (*server, error) {
	s := &server{addr: addr, stderr: &tailBuffer{}, exited: make(chan struct{}), grace: stopGrace}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.Stderr = s.stderr
	if err := startPinned(s.cmd); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s.unreg = onExit(s.kill)
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()
	return s, nil
}

// startServer launches bin on a free loopback port and returns once
// /v1/readyz answers 200; elapsed is launch to ready. When another process
// took the port between the pick and the child's bind, it picks again.
func startServer(bin string, args ...string) (*server, time.Duration, error) {
	for attempt := 0; ; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		s, err := launch(bin, addr, args...)
		if err != nil {
			return nil, 0, err
		}
		err = s.waitReady(readyTimeout)
		if err == nil {
			return s, time.Since(start), nil
		}
		s.stop()
		if attempt < 4 && strings.Contains(s.stderr.String(), "address already in use") {
			continue
		}
		return nil, 0, err
	}
}

// waitReady polls /v1/readyz until it answers 200, the child exits, or
// the timeout passes; the error carries the child's stderr tail.
func (s *server) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("freeset-serve exited before ready; stderr tail:\n%s", s.stderr)
		default:
		}
		if c, err := dial(s.addr); err == nil {
			status, _, err := c.do("GET", "/v1/readyz", nil)
			c.close()
			if err == nil && status == 200 {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("freeset-serve not ready after %v; stderr tail:\n%s", timeout, s.stderr)
}

// stop sends SIGTERM, waits for the graceful drain, then kills. It returns
// once the child has been reaped.
func (s *server) stop() error {
	defer s.unreg()
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
		return nil
	case <-time.After(s.grace):
		s.kill()
		return errors.New("freeset-serve ignored SIGTERM; killed")
	}
}

func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// procStatusKB reads a "Key:   123 kB" line of /proc/<pid>/status.
func procStatusKB(pid int, key string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, key)
}

// peakRSSMB is the process's high-water resident set.
func peakRSSMB(pid int) (float64, error) {
	kb, err := procStatusKB(pid, "VmHWM")
	return kb / 1024, err
}

// clockTick is USER_HZ: /proc/<pid>/stat reports CPU time in these. It is
// 100 on every Linux the toolchain runs on.
const clockTick = 100

// procCPUSeconds is utime+stime of the process.
func procCPUSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields are counted after its ')'.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / clockTick, nil
}

// procWriteChars is wchar of /proc/<pid>/io: bytes the process passed to
// write-like system calls.
func procWriteChars(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "wchar:"); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/io: no wchar", pid)
}

// selfCPUSeconds is this process's user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
