package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestSigtermExitsWithinDrainDeadline is the shutdown-hang regression
// test at the process level: a qserve with a long Monte-Carlo search
// running must exit within the drain deadline on SIGTERM — not block in
// shutdown until the job finishes — and a restart over the same store
// must list the job as canceled or interrupted via the metadata journal.
func TestSigtermExitsWithinDrainDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the real binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "qserve")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building qserve: %v", err)
	}
	storeDir := filepath.Join(dir, "runs")

	addr := freeAddr(t)
	srv := startQserve(t, bin, addr, storeDir)

	// A search far larger than the test's patience.
	body := `{"kind":"search","spec":{"benchmark":"sym6_145","strategy":"anneal","steps":200000,"max_evals":2}}`
	id := submitJob(t, addr, body)
	waitJobStatus(t, addr, id, "running", time.Minute)

	// SIGTERM with -drain 2s: the process must exit well within the
	// deadline plus the cancellation bound, never hang on the job.
	start := time.Now()
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- srv.Wait() }()
	select {
	case <-exited:
	case <-time.After(30 * time.Second):
		srv.Process.Kill()
		t.Fatalf("qserve did not exit within 30s of SIGTERM (drain 2s)")
	}
	if elapsed := time.Since(start); elapsed > 25*time.Second {
		t.Fatalf("qserve took %s to exit", elapsed)
	}

	// Restart over the same store: the journal lists the prior job in a
	// terminal, lost-work state.
	addr2 := freeAddr(t)
	srv2 := startQserve(t, bin, addr2, storeDir)
	defer func() {
		srv2.Process.Signal(syscall.SIGTERM)
		srv2.Wait()
	}()
	resp, err := http.Get("http://" + addr2 + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Jobs []struct {
			ID     string `json:"id"`
			Status string `json:"status"`
		} `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	status := ""
	for _, j := range listing.Jobs {
		if j.ID == id {
			status = j.Status
		}
	}
	switch status {
	case "canceled", "interrupted", "queued", "running":
		// Canceled: the drain journaled the cancellation before exit.
		// Interrupted: the final record was lost and the retry budget was
		// already spent. Queued/running: the supervisor requeued the
		// interrupted job at startup. All are valid post-crash states;
		// silently vanishing is not.
	default:
		t.Fatalf("restarted server lists the job as %q (listing: %+v)", status, listing.Jobs)
	}
}

// TestNewHTTPServerTimeouts pins the hardened listener settings: header
// reads and idle keep-alives are bounded, while writes are not (event
// streams stay open for a job's lifetime).
func TestNewHTTPServerTimeouts(t *testing.T) {
	s := newHTTPServer("127.0.0.1:0", http.NewServeMux())
	if s.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", s.ReadHeaderTimeout)
	}
	if s.IdleTimeout != 2*time.Minute {
		t.Errorf("IdleTimeout = %v, want 2m", s.IdleTimeout)
	}
	if s.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0 (streams must not be cut)", s.WriteTimeout)
	}
	if s.Addr != "127.0.0.1:0" || s.Handler == nil {
		t.Errorf("addr/handler not wired: %q, %v", s.Addr, s.Handler)
	}
}

// portfolioBody is sized so a -quick run takes ~7s on 2 vCPUs: long
// enough to checkpoint at several exchange barriers and be killed
// mid-flight, short enough that the resumed and reference runs finish
// quickly.
const portfolioBody = `{"kind":"portfolio","spec":{"benchmark":"sym6_145","strategy":"anneal","steps":20000,"proposals":6,"exchange_every":150,"lanes":2,"max_evals":6,"aux_counts":[0]}}`

// TestRestartResumesFromCheckpoint is the crash-recovery acceptance
// check at the process level: a portfolio search SIGKILLed mid-run
// (no drain, no journal finalisation) is requeued automatically by the
// restarted server, resumes from its on-disk checkpoint — reporting
// evaluations already spent — and finishes with an outcome
// bit-identical to an uninterrupted run on a fresh store.
func TestRestartResumesFromCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the real binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "qserve")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building qserve: %v", err)
	}

	// Phase 1: start, submit, wait for a checkpoint, then SIGKILL.
	storeDir := filepath.Join(dir, "runs")
	addr := freeAddr(t)
	srv := startQserve(t, bin, addr, storeDir)
	id := submitJob(t, addr, portfolioBody)

	ckPath := filepath.Join(storeDir, "runs", id, "checkpoint.json")
	deadline := time.Now().Add(time.Minute)
	for {
		if _, err := os.Stat(ckPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint at %s within a minute", ckPath)
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Let a few more exchange barriers pass so the resume is mid-search,
	// then verify the job is still running — a job that finished already
	// would make the kill meaningless.
	time.Sleep(2 * time.Second)
	resp, err := http.Get(fmt.Sprintf("http://%s/v1/jobs/%s", addr, id))
	if err != nil {
		t.Fatal(err)
	}
	var pre struct {
		Status string `json:"status"`
	}
	json.NewDecoder(resp.Body).Decode(&pre)
	resp.Body.Close()
	if pre.Status != "running" {
		t.Fatalf("job is %q before the kill, want running (grow steps)", pre.Status)
	}
	if err := srv.Process.Kill(); err != nil { // SIGKILL: no drain, no cleanup
		t.Fatal(err)
	}
	srv.Wait()

	// Phase 2: restart over the same store. The journal's last record for
	// the job says "running", so the supervisor requeues it and the run
	// resumes from the checkpoint.
	addr2 := freeAddr(t)
	srv2 := startQserve(t, bin, addr2, storeDir)
	defer func() {
		srv2.Process.Signal(syscall.SIGTERM)
		srv2.Wait()
	}()
	waitJobStatus(t, addr2, id, "done", 3*time.Minute)

	events := fetchEventMessages(t, addr2, id)
	if !containsSubstring(events, "job interrupted by server restart") {
		t.Fatalf("requeued job carries no restart event: %q", events)
	}
	evals := -1
	for _, m := range events {
		var unit int
		if _, err := fmt.Sscanf(m, "resuming from checkpoint (unit %d, %d evals spent)", &unit, &evals); err == nil {
			break
		}
	}
	if evals <= 0 {
		t.Fatalf("no resume event with evaluations already spent: %q", events)
	}
	resumed := fetchResultBody(t, addr2, id)

	// Phase 3: the same job cold on a fresh store must produce the same
	// id and byte-identical outcome.
	addr3 := freeAddr(t)
	srv3 := startQserve(t, bin, addr3, filepath.Join(dir, "runs-cold"))
	defer func() {
		srv3.Process.Signal(syscall.SIGTERM)
		srv3.Wait()
	}()
	coldID := submitJob(t, addr3, portfolioBody)
	if coldID != id {
		t.Fatalf("cold run keyed %s, killed run %s — content address drifted", coldID, id)
	}
	waitJobStatus(t, addr3, coldID, "done", 3*time.Minute)
	cold := fetchResultBody(t, addr3, coldID)
	if string(resumed) != string(cold) {
		t.Fatalf("resumed outcome differs from the uninterrupted run:\n%s\nvs\n%s", resumed, cold)
	}
}

// fetchEventMessages returns the job's event messages; the stream ends
// once the job is terminal.
func fetchEventMessages(t *testing.T, addr, id string) []string {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/v1/jobs/%s/events", addr, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var msgs []string
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var e struct {
			Message string `json:"message"`
		}
		if err := dec.Decode(&e); err != nil {
			break
		}
		msgs = append(msgs, e.Message)
	}
	return msgs
}

func containsSubstring(list []string, substr string) bool {
	for _, s := range list {
		if strings.Contains(s, substr) {
			return true
		}
	}
	return false
}

func fetchResultBody(t *testing.T, addr, id string) []byte {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/v1/jobs/%s/result", addr, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %s", resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// freeAddr reserves a loopback port and returns host:port.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// startQserve launches the built binary and waits for /healthz. extra
// flags are appended after the common ones.
func startQserve(t *testing.T, bin, addr, storeDir string, extra ...string) *exec.Cmd {
	t.Helper()
	args := append([]string{"-addr", addr, "-quick", "-store", storeDir, "-drain", "2s"}, extra...)
	cmd := exec.Command(bin, args...)
	var logBuf strings.Builder
	cmd.Stderr = &logBuf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("qserve at %s never became healthy; log:\n%s", addr, logBuf.String())
	return nil
}

func submitJob(t *testing.T, addr, body string) string {
	t.Helper()
	resp, err := http.Post("http://"+addr+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.ID == "" {
		t.Fatalf("submit returned no id (%s)", resp.Status)
	}
	return v.ID
}

func waitJobStatus(t *testing.T, addr, id, want string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	status := ""
	for time.Now().Before(deadline) {
		resp, err := http.Get(fmt.Sprintf("http://%s/v1/jobs/%s", addr, id))
		if err == nil {
			var v struct {
				Status string `json:"status"`
			}
			json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			status = v.Status
			if status == want {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("job %s stuck at %q, want %q", id, status, want)
}
