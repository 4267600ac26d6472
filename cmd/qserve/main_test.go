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
	"slices"
	"strings"
	"sync"
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
	bin := qserveBinary(t)
	storeDir := filepath.Join(t.TempDir(), "runs")

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
	defer stopQserve(srv2)
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
	bin := qserveBinary(t)
	dir := t.TempDir()

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
	defer stopQserve(srv2)
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
	defer stopQserve(srv3)
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

// smokeSweep is the smoke's quick sweep; the smoke also runs it at
// another σ.
const smokeSweep = `{"kind":"sweep","spec":{"benchmarks":["sym6_145"],"configs":["ibm","eff-full"],"sigmas":[0.03]}}`

// TestQserveSmoke drives one qserve over one store through the service's
// life, restarting it three times: a sweep runs, a repeat at another σ
// routes nothing, a restart serves the stored sweep without recomputing,
// DELETE cancels a running search, a restart lists the prior jobs from
// the journal, a chimera search round-trips through store and journal,
// and its progress series answer windowed queries. Each subtest is one
// step, run in order; a failed step does not skip the later ones. The
// restarts run between steps, on the test's own goroutine, because the
// process outlives the step. SIGTERM within the drain deadline is
// TestSigtermExitsWithinDrainDeadline.
func TestQserveSmoke(t *testing.T) {
	bin := qserveBinary(t)
	storeDir := filepath.Join(t.TempDir(), "runs")
	var addr string
	var srv *exec.Cmd
	start := func() {
		addr = freeAddr(t)
		srv = startQserve(t, bin, addr, storeDir, "-queue", "4")
	}
	restart := func() {
		stopQserve(srv)
		start()
	}
	url := func(path string) string { return "http://" + addr + path }
	stats := func(t *testing.T) (v statsView) {
		getJSON(t, url("/v1/stats"), &v)
		return v
	}
	points := func(t *testing.T, id string) int {
		var res struct {
			Points []json.RawMessage `json:"points"`
		}
		getJSON(t, url("/v1/jobs/"+id+"/result"), &res)
		return len(res.Points)
	}
	// start fails the test unless /healthz answers.
	start()
	defer func() { stopQserve(srv) }()

	t.Run("submit a quick sweep and poll to completion", func(t *testing.T) {
		id := submitJob(t, addr, smokeSweep)
		waitJobStatus(t, addr, id, "done", 5*time.Minute)
		fetchEventMessages(t, addr, id) // fails the step unless the stream answers 200
		if n := points(t, id); n <= 0 {
			t.Fatalf("sweep result holds %d points", n)
		}
		// Noise matrices live as long as their job: none outlives it.
		if b := stats(t).NoiseCache.Bytes; b != 0 {
			t.Fatalf("noise cache holds %d bytes after the job", b)
		}
	})

	t.Run("the same sweep at another sigma routes nothing again", func(t *testing.T) {
		misses := stats(t).MapCache.Misses
		id := submitJob(t, addr, strings.Replace(smokeSweep, "0.03", "0.04", 1))
		waitJobStatus(t, addr, id, "done", 5*time.Minute)
		if mc := stats(t).MapCache; mc.Hits == 0 || mc.Misses != misses {
			t.Fatalf("map cache %+v, want hits > 0 and misses %d", mc, misses)
		}
	})

	restart()
	t.Run("restarted server serves the stored run without recomputing", func(t *testing.T) {
		// The run directories are the store's only index: there is no
		// index.json, and the reopened store lists exactly the runs that
		// have an entry file.
		if _, err := os.Stat(filepath.Join(storeDir, "index.json")); !os.IsNotExist(err) {
			t.Fatalf("index.json exists (stat: %v)", err)
		}
		entries, err := filepath.Glob(filepath.Join(storeDir, "runs", "*", "entry.json"))
		if err != nil || len(entries) == 0 {
			t.Fatalf("%d entry files (%v)", len(entries), err)
		}
		if st := stats(t).Store; st == nil || st.Entries != len(entries) {
			t.Fatalf("store stats %+v, want %d entries", st, len(entries))
		}
		id := submitJob(t, addr, smokeSweep)
		if v := pollJob(t, addr, id, time.Minute, func(v jobView) bool { return v.Cached }); !v.Cached {
			t.Fatalf("resubmitted sweep never reported cached: %+v", v)
		}
	})

	var canceledID string
	t.Run("DELETE cancels a running search mid-flight", func(t *testing.T) {
		id := submitJob(t, addr, `{"kind":"search","spec":{"benchmark":"sym6_145","strategy":"anneal","steps":200000,"max_evals":2}}`)
		waitJobStatus(t, addr, id, "running", 30*time.Second)
		req, err := http.NewRequest(http.MethodDelete, url("/v1/jobs/"+id), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE: %s", resp.Status)
		}
		waitJobStatus(t, addr, id, "canceled", 30*time.Second)
		if ev := fetchEventMessages(t, addr, id); len(ev) == 0 || ev[len(ev)-1] != "job canceled" {
			t.Fatalf("canceled job's events end %q", ev)
		}
		canceledID = id
	})

	restart()
	t.Run("restart lists prior jobs with statuses from the journal", func(t *testing.T) {
		var listing struct {
			Jobs []jobView `json:"jobs"`
		}
		getJSON(t, url("/v1/jobs"), &listing)
		// The done sweep and the canceled search both survive the restart.
		var canceled, done []jobView
		for _, j := range listing.Jobs {
			if j.ID == canceledID {
				canceled = append(canceled, j)
			}
			if j.Status == "done" {
				done = append(done, j)
			}
		}
		if len(canceled) != 1 || canceled[0].Status != "canceled" {
			t.Fatalf("canceled search %s listed as %+v", canceledID, canceled)
		}
		if len(done) < 1 {
			t.Fatalf("no done job listed: %+v", listing.Jobs)
		}
		// A restored done job still serves its result from the store.
		if n := points(t, done[0].ID); n <= 0 {
			t.Fatalf("restored done job's result holds %d points", n)
		}
	})

	const family = "chimera(2,2,4)"
	type archResult struct {
		Arch struct {
			Family string            `json:"family"`
			Buses  []json.RawMessage `json:"buses"`
		} `json:"arch"`
	}
	var chimeraID string
	t.Run("chimera topology round-trips through the store", func(t *testing.T) {
		id := submitJob(t, addr, `{"kind":"search","spec":{"benchmark":"sym6_145","strategy":"anneal","topology":"chimera(2,2,4)","steps":6,"proposals":2,"max_evals":1}}`)
		waitJobStatus(t, addr, id, "done", 5*time.Minute)
		chimeraID = id
		if v := getJob(t, addr, id); v.Spec.Topology != family {
			t.Fatalf("job spec topology %q", v.Spec.Topology)
		}
		var res archResult
		getJSON(t, url("/v1/jobs/"+id+"/result"), &res)
		if res.Arch.Family != family {
			t.Fatalf("result family %q", res.Arch.Family)
		}
	})

	t.Run("the metrics store holds at most one file open", func(t *testing.T) {
		// The chimera search wrote three series in this process's
		// lifetime; the store keeps one append handle for them all.
		fdDir := fmt.Sprintf("/proc/%d/fd", srv.Process.Pid)
		fds, err := os.ReadDir(fdDir)
		if err != nil {
			t.Skipf("no fd listing for qserve: %v", err)
		}
		metricsDir, err := filepath.EvalSymlinks(filepath.Join(storeDir, "metrics"))
		if err != nil {
			t.Fatal(err)
		}
		var open []string
		for _, fd := range fds {
			target, err := os.Readlink(filepath.Join(fdDir, fd.Name()))
			if err == nil && strings.HasPrefix(target, metricsDir+string(filepath.Separator)) {
				open = append(open, target)
			}
		}
		if len(open) > 1 {
			t.Fatalf("qserve holds %d files open under the metrics store: %q", len(open), open)
		}
	})

	restart()
	t.Run("chimera topology round-trips through the journal", func(t *testing.T) {
		if chimeraID == "" {
			t.Fatal("no chimera search from the previous step")
		}
		// The journal restores the job with its topology intact and the
		// result still comes straight from the store.
		if v := getJob(t, addr, chimeraID); v.Status != "done" || !v.Restored || v.Spec.Topology != family {
			t.Fatalf("restored chimera job %+v", v)
		}
		var res archResult
		getJSON(t, url("/v1/jobs/"+chimeraID+"/result"), &res)
		if res.Arch.Family != family || len(res.Arch.Buses) != 80 {
			t.Fatalf("restored result family %q with %d buses, want %s with 80", res.Arch.Family, len(res.Arch.Buses), family)
		}
	})

	t.Run("windowed metrics queries serve the recorded progress series", func(t *testing.T) {
		if chimeraID == "" {
			t.Fatal("no chimera search from the earlier step")
		}
		// The per-job yield/evals series were recorded while the search
		// ran and survived the restart on disk next to the run store.
		var names struct {
			Metrics []string `json:"metrics"`
		}
		getJSON(t, url("/v1/jobs/"+chimeraID+"/metrics"), &names)
		if !slices.Contains(names.Metrics, "yield") || !slices.Contains(names.Metrics, "evals") {
			t.Fatalf("job metrics %q lack yield or evals", names.Metrics)
		}
		var q struct {
			Buckets []struct {
				Count int      `json:"count"`
				Min   float64  `json:"min"`
				Max   float64  `json:"max"`
				Last  float64  `json:"last"`
				Value *float64 `json:"value"`
			} `json:"buckets"`
		}
		getJSON(t, url("/v1/jobs/"+chimeraID+"/metrics?metric=yield&step_window=2&agg=last"), &q)
		if len(q.Buckets) < 1 {
			t.Fatal("yield query returned no buckets")
		}
		count := 0
		for _, b := range q.Buckets {
			count += b.Count
			if b.Min > b.Max {
				t.Fatalf("bucket min %v > max %v", b.Min, b.Max)
			}
		}
		if count < 1 {
			t.Fatalf("yield buckets count %d points", count)
		}
		if b := q.Buckets[0]; b.Value == nil || *b.Value != b.Last {
			t.Fatalf("agg=last value %v, want last %v", b.Value, b.Last)
		}
		if m := stats(t).Metrics; m == nil || m.Points < 1 || m.Series < 1 {
			t.Fatalf("metrics stats %+v, want points and series >= 1", m)
		}
	})
}

// TestFaultInjectedQserveCompletesJobs starts qserve with a fault plan
// in its environment, under which every third journal append fails and
// every store read is delayed 5 ms, and checks that qserve announces the
// plan and still runs a quick sweep to done. QSERVE_FAULT_SEED passes
// through from the test's own environment; the plan has no p= rule, so
// the seed does not change what is injected.
func TestFaultInjectedQserveCompletesJobs(t *testing.T) {
	bin := qserveBinary(t)
	const spec = "journal.append:error:every=3;store.get:delay=5ms"
	t.Setenv("QSERVE_FAULT_SPEC", spec)
	seed := os.Getenv("QSERVE_FAULT_SEED")
	if seed == "" {
		seed = "1" // -fault-seed's default
	}
	addr := freeAddr(t)
	srv := startQserve(t, bin, addr, filepath.Join(t.TempDir(), "runs"),
		"-queue", "4", "-retry-failed", "2", "-retry-backoff", "100ms")
	id := submitJob(t, addr, smokeSweep)
	waitJobStatus(t, addr, id, "done", 300*time.Second)
	// The log is complete, and safe to read, once the process has exited.
	stopQserve(srv)
	banner := "FAULT INJECTION ACTIVE: " + spec + " (seed " + seed + ")"
	if log := srv.Stderr.(*strings.Builder).String(); !strings.Contains(log, banner) {
		t.Fatalf("qserve log lacks %q:\n%s", banner, log)
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %s", resp.Status)
	}
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
	if v := pollJob(t, addr, id, timeout, func(v jobView) bool { return v.Status == want }); v.Status != want {
		t.Fatalf("job %s stuck at %q, want %q", id, v.Status, want)
	}
}

// jobView is the part of a job's status the process tests read.
type jobView struct {
	ID       string `json:"id"`
	Status   string `json:"status"`
	Cached   bool   `json:"cached"`
	Restored bool   `json:"restored"`
	Spec     struct {
		Topology string `json:"topology"`
	} `json:"spec"`
}

// pollJob polls the job's status until ok holds or timeout passes, and
// returns the last status read.
func pollJob(t *testing.T, addr, id string, timeout time.Duration, ok func(jobView) bool) jobView {
	t.Helper()
	var v jobView
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		resp, err := http.Get(fmt.Sprintf("http://%s/v1/jobs/%s", addr, id))
		if err != nil {
			continue
		}
		v = jobView{}
		json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if ok(v) {
			break
		}
	}
	return v
}

// getJob reads the job's status.
func getJob(t *testing.T, addr, id string) (v jobView) {
	t.Helper()
	getJSON(t, fmt.Sprintf("http://%s/v1/jobs/%s", addr, id), &v)
	return v
}

// statsView is the part of GET /v1/stats the process tests read.
type statsView struct {
	NoiseCache struct {
		Bytes int64 `json:"bytes"`
	} `json:"noise_cache"`
	MapCache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"map_cache"`
	Store *struct {
		Entries int `json:"entries"`
	} `json:"store"`
	Metrics *struct {
		Series int   `json:"series"`
		Points int64 `json:"points"`
	} `json:"metrics"`
}

// getJSON fetches url, fails the test unless it answers 200, and decodes
// the body into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// stopQserve sends SIGTERM and waits for the process to exit.
func stopQserve(cmd *exec.Cmd) {
	if cmd.ProcessState == nil {
		cmd.Process.Signal(syscall.SIGTERM)
		cmd.Wait()
	}
}

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// TestMain removes the binary qserveBinary built, if any.
func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// qserveBinary builds qserve once per package run and returns its path;
// under -short it skips the calling test.
func qserveBinary(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and drives the real binary")
	}
	buildOnce.Do(func() {
		if binDir, buildErr = os.MkdirTemp("", "qserve-test-"); buildErr != nil {
			return
		}
		build := exec.Command("go", "build", "-o", filepath.Join(binDir, "qserve"), ".")
		build.Stderr = os.Stderr
		buildErr = build.Run()
	})
	if buildErr != nil {
		t.Fatalf("building qserve: %v", buildErr)
	}
	return filepath.Join(binDir, "qserve")
}
