// Command bench is the repository's end-to-end benchmark: it measures
// qserve jobs the way a client sees them, and, in a separate traced
// run, splits their time across the engine's layers.
//
// One run builds ./cmd/qserve, starts it three times to time set-up
// (process start, /healthz, one warm-up job), then drives the last
// instance with two closed-loop clients: at least --seconds and the
// workload's request count (at least 40), ending on a round boundary of
// the workload's request sequence.
// Every result is verified. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}, where
// metrics holds the end-to-end metrics, or with --trace 1 the per-layer
// metrics of an in-process replay of 8 of the run's jobs.
//
// Usage, from the repository root or from bench/:
//
//	bash bench/run.sh --workload sweep-map --seed 1 --seconds 10 --trace 0
//	go run . --workload portfolio --seed 3 --trace 1    # inside bench/
//
// Workloads: sweep-map, search-anneal, portfolio, mixed-store. See
// README.md for the metrics, their bounds and the comparison protocol.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: sweep-map, search-anneal, portfolio or mixed-store")
	seed := flag.Int64("seed", 1, "workload seed: chooses the job specs (qserve keeps engine seed 1)")
	seconds := flag.Float64("seconds", 10, "minimum timed window; the run also sends the workload's request count and ends on a round boundary")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced replay instead of the end-to-end metrics")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	os.Exit(run(w, *seed, *seconds, *trace == 1))
}

func run(w workload, seed int64, seconds float64, traced bool) int {
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	work := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cfg := runConfig{root: root, dir: dir, setups: 3, lim: limits{seconds: seconds, minRequests: w.requests}, trace: traced}
	m, err := measure(w, seed, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	t := count(m.outcomes)
	for i, e := range t.errs {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "bench: ... %d more failures\n", len(t.errs)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "bench: failed:", e)
	}
	var metrics map[string]metric
	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
		metrics, err = perLayer(m)
		if err == nil {
			path := filepath.Join(work, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
			if err = m.replay.tr.write(path, map[string]any{"workload": w.name, "seed": seed}); err == nil {
				fmt.Fprintln(os.Stderr, "bench: spans written to", path)
			}
		}
	} else {
		metrics, err = endToEnd(m)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if m.replay != nil && m.replay.mismatch != nil {
		fmt.Fprintln(os.Stderr, "bench: replay fidelity gate:", m.replay.mismatch)
		t.failed++
	}

	digest, n := outputsDigest(m.outcomes)
	fmt.Printf("workload %s seed %d: %d requests attempted, %d verified, %d failed, %.1f s window\n",
		w.name, seed, t.attempted, len(t.verified), t.failed, m.window.Seconds())
	for _, d := range defs {
		fmt.Printf("%-34s %14.6g %s\n", d.name, metrics[d.name].Value, d.unit)
	}
	fmt.Printf("outputs_sha256 %s (round 0, %d results)\n", digest, n)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{t.failed == 0, t.attempted, t.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if t.failed > 0 {
		return 1
	}
	return 0
}

// repoRoot finds the repository the benchmark builds qserve from: the
// working directory, or its parent when run from bench/.
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "qserve", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no cmd/qserve under %s or its parent: run from the repository root", wd)
}

type runConfig struct {
	root, dir string
	setups    int
	lim       limits
	trace     bool
}

// measurement is everything one run observed.
type measurement struct {
	setups        []float64 // seconds per set-up
	outcomes      []outcome
	window        time.Duration
	cpuSeconds    float64 // qserve CPU over the window
	peakRSSMiB    float64
	storeBytes    int64
	before, after serverStats
	replay        *replayResult // traced runs only
}

// measure builds qserve, times its set-up, drives the timed window and,
// when traced, replays a sample of the window's jobs.
func measure(w workload, seed int64, cfg runConfig) (*measurement, error) {
	bin, err := buildQserve(cfg.root, cfg.dir)
	if err != nil {
		return nil, err
	}
	m := &measurement{}
	var q *qserve
	defer func() {
		if q != nil {
			_ = q.stop()
		}
	}()
	for i := 0; i < cfg.setups; i++ {
		if q != nil {
			if err := q.stop(); err != nil {
				return nil, err
			}
		}
		var d time.Duration
		q, d, err = setUp(bin, w, filepath.Join(cfg.dir, fmt.Sprintf("qserve-%d", i)))
		if err != nil {
			return nil, err
		}
		m.setups = append(m.setups, d.Seconds())
	}

	if m.before, err = fetchStats(q.base); err != nil {
		return nil, err
	}
	cpu0, err := q.cpuSeconds()
	if err != nil {
		return nil, err
	}
	streams := w.streams(seed)
	g := &gate{lim: cfg.lim, start: time.Now()}
	perClient := make([][]outcome, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newClient(q.base)
			c.times = cfg.trace
			defer c.close()
			s := streams[i%len(streams)]
			for r := s.next(g); r != nil; r = s.next(g) {
				perClient[i] = append(perClient[i], c.do(r))
			}
		}(i)
	}
	wg.Wait()
	m.window = time.Since(g.start)
	for _, outs := range perClient {
		m.outcomes = append(m.outcomes, outs...)
	}

	cpu1, err := q.cpuSeconds()
	if err != nil {
		return nil, err
	}
	m.cpuSeconds = cpu1 - cpu0
	if m.after, err = fetchStats(q.base); err != nil {
		return nil, err
	}
	if m.peakRSSMiB, err = q.peakRSSMiB(); err != nil {
		return nil, err
	}
	if err := q.stop(); err != nil {
		return nil, err
	}
	if m.storeBytes, err = dirBytes(q.store); err != nil {
		return nil, err
	}
	if cfg.trace {
		if m.replay, err = replaySample(streams, filepath.Join(cfg.dir, "replay")); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// setUp starts qserve on a fresh store and runs the workload's warm-up
// job; the returned duration runs from exec to the verified warm-up
// result.
func setUp(bin string, w workload, dir string) (*qserve, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	q, err := startQserve(bin, filepath.Join(dir, "store"), filepath.Join(dir, "qserve.log"))
	if err != nil {
		return nil, 0, err
	}
	if err := q.waitHealthy(30 * time.Second); err != nil {
		_ = q.stop()
		return nil, 0, err
	}
	c := newClient(q.base)
	defer c.close()
	if o := c.do(w.warmup()); o.err != nil {
		_ = q.stop()
		return nil, 0, fmt.Errorf("warm-up job: %w", o.err)
	}
	return q, time.Since(t0), nil
}

type counters struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// serverStats is the part of GET /v1/stats the benchmark reads.
type serverStats struct {
	NoiseCache  counters `json:"noise_cache"`
	KernelCache counters `json:"kernel_cache"`
	Metrics     struct {
		Appends int64 `json:"appends"`
	} `json:"metrics"`
}

func (s serverStats) delta(before serverStats) serverStats {
	d := s
	d.NoiseCache.Hits -= before.NoiseCache.Hits
	d.NoiseCache.Misses -= before.NoiseCache.Misses
	d.KernelCache.Hits -= before.KernelCache.Hits
	d.KernelCache.Misses -= before.KernelCache.Misses
	d.Metrics.Appends -= before.Metrics.Appends
	return d
}

// jobTimes is the part of GET /v1/jobs/{id} the benchmark reads.
type jobTimes struct {
	ID        string    `json:"id"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func fetchStats(base string) (serverStats, error) {
	var s serverStats
	return s, getJSON(base+"/v1/stats", &s)
}

// replayResult is the in-process replay of a run's sample.
type replayResult struct {
	tr             *tracer
	spans          []span
	jobs           []*replayed
	noiseGens      uint64 // noise-cache misses during the jobs
	kernelCompiles uint64 // kernel-cache misses during the jobs
	probeProposals int
	// mismatch is set when a replayed outcome is not byte-identical to
	// the server's: the per-layer numbers would not describe real work.
	mismatch error
}

// sample picks the jobs to replay: the first computed requests of each
// stream, sampleJobs in all, split evenly between the streams.
func sample(streams []*stream) []*request {
	quota := sampleJobs / len(streams)
	var out []*request
	for _, s := range streams {
		taken := 0
		for _, r := range s.log {
			if taken == quota {
				break
			}
			if r.repeat == nil && r.result != nil {
				out = append(out, r)
				taken++
			}
		}
	}
	return out
}

// replaySample replays the sampled jobs in-process, checks each outcome
// against the server's bytes, then runs the probes.
func replaySample(streams []*stream, dir string) (*replayResult, error) {
	rp, err := newReplayer(dir)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	res := &replayResult{tr: rp.tr}
	_, n0 := rp.cache.Stats()
	_, k0 := rp.kernels.Stats()
	for _, r := range sample(streams) {
		rj, err := rp.replay(r)
		if err != nil {
			return nil, err
		}
		if res.mismatch == nil && (rj.id != r.id || !bytes.Equal(rj.payload, r.result)) {
			res.mismatch = fmt.Errorf("job %s: replay produced %s with %d outcome bytes, server %d bytes",
				r.id, rj.id, len(rj.payload), len(r.result))
		}
		res.jobs = append(res.jobs, rj)
	}
	_, n1 := rp.cache.Stats()
	_, k1 := rp.kernels.Stats()
	res.noiseGens, res.kernelCompiles = n1-n0, k1-k0
	direct := map[string]int{}
	for _, s := range rp.tr.snapshot() {
		direct[s.Name]++
	}
	if err := rp.runProbes(res.jobs, direct); err != nil {
		return nil, err
	}
	res.spans = rp.tr.snapshot()
	res.probeProposals = rp.probeProposals
	return res, nil
}
