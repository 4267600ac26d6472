package main

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildQserve compiles ./cmd/qserve of the repository at root into dir.
func buildQserve(root, dir string) (string, error) {
	bin := filepath.Join(dir, "qserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/qserve")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building qserve: %w", err)
	}
	return bin, nil
}

// qserve is one child server process.
type qserve struct {
	cmd   *exec.Cmd
	base  string
	store string
	log   string
	done  chan struct{}
	// exit is cmd.Wait's result, readable once done is closed.
	exit error
}

// startQserve launches bin on a free loopback port with the benchmark's
// fixed flags; every other flag keeps its default (journal fsync on,
// -checkpoint-every 25, the metrics store on). GOMAXPROCS=2 matches the
// two-CPU machine the baseline was measured on.
func startQserve(bin, storeDir, logPath string) (*qserve, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-quick", "-workers", "2", "-jobs", "1", "-queue", "16",
		"-store", storeDir, "-addr", addr)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	// Should the benchmark die, the kernel kills qserve with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting qserve: %w", err)
	}
	q := &qserve{cmd: cmd, base: "http://" + addr, store: storeDir, log: logPath, done: make(chan struct{})}
	go func() {
		q.exit = cmd.Wait()
		close(q.done)
	}()
	return q, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls /healthz until it answers 200.
func (q *qserve) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-q.done:
			return fmt.Errorf("qserve exited before becoming healthy: %v (log %s)", q.exit, q.log)
		default:
		}
		resp, err := client.Get(q.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("qserve not healthy after %v (log %s)", timeout, q.log)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop sends SIGTERM, lets qserve drain (it has no work left by then)
// and waits for it to exit, killing it if it has not within 15 s.
func (q *qserve) stop() error {
	select {
	case <-q.done:
		return nil
	default:
	}
	if err := q.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("stopping qserve: %w", err)
	}
	select {
	case <-q.done:
		return nil
	case <-time.After(15 * time.Second):
		_ = q.cmd.Process.Kill()
		<-q.done
		return fmt.Errorf("qserve ignored SIGTERM for 15s and was killed (log %s)", q.log)
	}
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times; Linux
// fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// cpuSeconds returns the process's user+system CPU time so far.
func (q *qserve) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", q.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// its closing parenthesis with field 3 (state).
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parsing /proc stat: %w", err)
	}
	return float64(utime+stime) / clockTicks, nil
}

// peakRSSMiB returns the process's resident-set high-water mark.
func (q *qserve) peakRSSMiB() (float64, error) {
	const field = "VmHWM"
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", q.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s %q: %w", field, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, q.cmd.Process.Pid)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
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
