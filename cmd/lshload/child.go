package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Child-process hygiene for the lshserve under test: one child at a time,
// its bound address parsed from its own "listening on" line, readiness from
// /readyz, peak memory from /proc before it is told to stop, and a pid file
// so a run refuses to start beside a child an earlier run left behind.

var listenLine = regexp.MustCompile(`listening on (\S+)`)

type child struct {
	cmd     *exec.Cmd
	addr    string
	pidFile string
	logTail *tailBuffer
	waited  chan struct{} // closed once cmd.Wait has returned
	waitErr error
}

// tailBuffer keeps the last lines a child printed, for error reports.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, line)
	if len(t.lines) > 20 {
		t.lines = t.lines[1:]
	}
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

// pidFilePath is where the live child's pid is kept. It lives in the temp
// directory, which run.sh points inside the checkout.
func pidFilePath() string { return filepath.Join(os.TempDir(), "lshload-child.pid") }

// checkNoStaleChild refuses to proceed while the pid file names a live
// lshserve: two servers would share the box's two cores and spoil both runs.
func checkNoStaleChild() error {
	b, err := os.ReadFile(pidFilePath())
	if err != nil {
		return nil
	}
	pid, err := strconv.Atoi(strings.TrimSpace(string(b)))
	if err != nil {
		return os.Remove(pidFilePath())
	}
	cmdline, err := os.ReadFile(fmt.Sprintf("/proc/%d/cmdline", pid))
	if err == nil && strings.Contains(string(cmdline), "lshserve") {
		return fmt.Errorf("a previous lshserve child (pid %d) is still alive; kill it and remove %s", pid, pidFilePath())
	}
	return os.Remove(pidFilePath())
}

// startChild launches bin with args and returns once the server answers
// /readyz. The caller must stop or kill the child.
func startChild(ctx context.Context, bin string, args []string) (*child, error) {
	if err := checkNoStaleChild(); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, pidFile: pidFilePath(), logTail: &tailBuffer{}, waited: make(chan struct{})}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	addrc := make(chan string, 1)
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			c.logTail.add(sc.Text())
			if m := listenLine.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
		}
	}()
	go func() {
		defer readers.Done()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			c.logTail.add(sc.Text())
		}
	}()
	go func() {
		readers.Wait() // Wait closes the pipes; drain them first
		c.waitErr = cmd.Wait()
		close(c.waited)
	}()
	if err := os.WriteFile(c.pidFile, []byte(strconv.Itoa(cmd.Process.Pid)), 0o644); err != nil {
		c.kill()
		return nil, err
	}

	select {
	case c.addr = <-addrc:
	case <-c.waited:
		c.cleanup()
		return nil, fmt.Errorf("%s exited before listening: %v\n%s", bin, c.waitErr, c.logTail)
	case <-ctx.Done():
		c.kill()
		return nil, ctx.Err()
	case <-time.After(120 * time.Second):
		c.kill()
		return nil, fmt.Errorf("%s did not listen within 120s\n%s", bin, c.logTail)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + c.addr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			c.kill()
			return nil, fmt.Errorf("%s not ready at %s: %v", bin, c.addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// peakRSSMB reads the process's VmHWM (peak resident set) in MB; 0 when
// /proc does not offer it.
func peakRSSMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func (c *child) peakRSSMB() float64 { return peakRSSMB(c.cmd.Process.Pid) }

func (c *child) cleanup() { os.Remove(c.pidFile) }

// stop asks the child to shut down cleanly (SIGINT) and waits; a child that
// does not exit in time is killed.
func (c *child) stop() {
	c.cmd.Process.Signal(syscall.SIGINT)
	select {
	case <-c.waited:
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill()
		<-c.waited
	}
	c.cleanup()
}

// kill is the crash: SIGKILL, no chance to flush anything.
func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.waited
	c.cleanup()
}

// buildBinary compiles pkg (an import path of this module, so it resolves
// from any directory inside it) into dir and returns the binary's path.
func buildBinary(ctx context.Context, pkg, dir string) (string, error) {
	out := filepath.Join(dir, filepath.Base(pkg))
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, pkg)
	if b, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build %s: %v\n%s", pkg, err, b)
	}
	return out, nil
}
