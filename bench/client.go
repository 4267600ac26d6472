package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"qproc/internal/core"
	"qproc/internal/experiments"
	"qproc/internal/search"
)

// client is one closed-loop user on one keep-alive connection: it sends
// its next request only after the previous result arrived.
type client struct {
	base string
	http *http.Client
	// times makes the client read each computed job's server timestamps
	// after its result, outside the latency (traced runs only).
	times bool
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// outcome is what one request cost and returned. err is set when the
// request failed, was refused, or its result did not verify.
type outcome struct {
	req     *request
	latency time.Duration // POST sent → verified result received
	submit  time.Duration // the POST round trip
	result  time.Duration // the result GET round trip
	deduped bool          // the POST answered 200: served by an existing job
	events  int
	retried bool
	times   jobTimes // the job's server timestamps, when the client reads them
	// metricsRead reports whether a metrics read was attempted, and
	// metricsErr its failure.
	metricsRead bool
	metricsErr  error
	err         error
}

// requestTimeout bounds one request, so a wedged server fails the run
// instead of hanging it.
const requestTimeout = 60 * time.Second

// do runs one request: submit, follow its event stream to the end, fetch
// and verify the result, then read the job's timestamps when c.times is
// set and make the metrics read the request carries.
func (c *client) do(r *request) outcome {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	o := outcome{req: r}
	t0 := time.Now()
	body, err := r.submission()
	if err != nil {
		o.err = err
		return o
	}
	status, raw, err := c.call(ctx, http.MethodPost, "/v1/jobs", body)
	o.submit = time.Since(t0)
	if err != nil {
		o.err = err
		return o
	}
	if status != http.StatusAccepted && status != http.StatusOK {
		o.err = fmt.Errorf("submit %s: HTTP %d: %s", r.kind, status, bytes.TrimSpace(raw))
		return o
	}
	o.deduped = status == http.StatusOK
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &sub); err != nil || sub.ID == "" {
		o.err = fmt.Errorf("submit %s: no job id in %q", r.kind, raw)
		return o
	}
	if o.events, o.retried, err = c.follow(ctx, sub.ID); err != nil {
		o.err = err
		return o
	}
	t1 := time.Now()
	status, res, err := c.call(ctx, http.MethodGet, "/v1/jobs/"+sub.ID+"/result", nil)
	o.result = time.Since(t1)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("result %s: HTTP %d: %s", sub.ID, status, bytes.TrimSpace(res))
	}
	if err == nil {
		err = verify(r, sub.ID, res)
	}
	o.latency = time.Since(t0)
	if err == nil && c.times && r.repeat == nil {
		o.times, err = c.readTimes(ctx, sub.ID)
	}
	if err != nil {
		o.err = err
		return o
	}
	if r.metricsOf != nil {
		o.metricsRead = true
		o.metricsErr = c.readMetrics(ctx, r.metricsOf.id)
	}
	return o
}

// follow blocks on the job's event stream until the server ends it and
// reports the event count, whether the job was retried, and an error
// unless the last event says the job is done.
func (c *client) follow(ctx context.Context, id string) (int, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return 0, false, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, false, fmt.Errorf("events %s: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, false, fmt.Errorf("events %s: HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	n, retried := 0, false
	var last experiments.Event
	for sc.Scan() {
		last = experiments.Event{}
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return n, retried, fmt.Errorf("events %s: %w", id, err)
		}
		n++
		if strings.HasPrefix(last.Message, "retrying in") {
			retried = true
		}
	}
	if err := sc.Err(); err != nil {
		return n, retried, fmt.Errorf("events %s: %w", id, err)
	}
	if !strings.HasPrefix(last.Message, "job done") {
		return n, retried, fmt.Errorf("job %s ended with %q %s", id, last.Message, last.Err)
	}
	return n, retried, nil
}

// readTimes reads a finished job's timestamps from GET /v1/jobs/{id}. The
// job finished moments ago, so it is still among the server's retained
// jobs however long the run, unlike the early jobs of GET /v1/jobs.
func (c *client) readTimes(ctx context.Context, id string) (jobTimes, error) {
	var jt jobTimes
	status, raw, err := c.call(ctx, http.MethodGet, "/v1/jobs/"+id, nil)
	if err != nil {
		return jt, err
	}
	if status != http.StatusOK || json.Unmarshal(raw, &jt) != nil || jt.Started.IsZero() || jt.Finished.IsZero() {
		return jt, fmt.Errorf("job status %s: HTTP %d: %s", id, status, bytes.TrimSpace(raw))
	}
	return jt, nil
}

// readMetrics makes the mixed-store metrics read and checks that it
// returns the search's yield buckets.
func (c *client) readMetrics(ctx context.Context, id string) error {
	status, raw, err := c.call(ctx, http.MethodGet, "/v1/jobs/"+id+"/metrics?metric=yield&step_window=10", nil)
	if err != nil {
		return err
	}
	var v struct {
		Buckets []json.RawMessage `json:"buckets"`
	}
	if status != http.StatusOK || json.Unmarshal(raw, &v) != nil || len(v.Buckets) == 0 {
		return fmt.Errorf("metrics %s: HTTP %d: %s", id, status, bytes.TrimSpace(raw))
	}
	return nil
}

// call makes one request and reads the whole response body, so the
// connection goes back to the pool for the next request.
func (c *client) call(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return resp.StatusCode, raw, nil
}

// verify checks one result: the job id is the JobKey the client computes
// for what it submitted, the payload decodes as the job kind's outcome,
// every yield lies in [0,1], and the outcome is not empty (sweep points,
// or a search trace). It records the id and result on the request.
func verify(r *request, id string, body []byte) error {
	want, err := expectedKey(r)
	if err != nil {
		return err
	}
	if id != want {
		return fmt.Errorf("%s job id %s, want JobKey %s", r.kind, id, want)
	}
	out, err := experiments.DecodeOutcome(r.kind, body)
	if err != nil {
		return fmt.Errorf("job %s: %w", id, err)
	}
	var own experiments.Job
	var yields []float64
	switch o := out.(type) {
	case *experiments.SweepResult:
		if len(o.Points) == 0 {
			return fmt.Errorf("sweep %s: no points", id)
		}
		for _, p := range o.Points {
			yields = append(yields, p.Yield)
		}
		own = experiments.SweepJob{Spec: o.Spec}
		r.sweep = o
	case *experiments.SearchOutcome:
		if len(o.Trace) == 0 {
			return fmt.Errorf("%s %s: empty trace", r.kind, id)
		}
		yields = append(yields, o.Best.Yield)
		for _, t := range o.Trace {
			yields = append(yields, t.Yield)
		}
		for _, l := range o.Lanes {
			yields = append(yields, l.Yield)
		}
		own = experiments.SearchJob{Spec: o.Spec}
		if pj, ok := r.job.(experiments.PortfolioJob); ok {
			own = experiments.PortfolioJob{Spec: experiments.PortfolioSpec{
				SearchSpec: o.Spec, Lanes: pj.Spec.Lanes, ExchangeEvery: pj.Spec.ExchangeEvery}}
		}
	default:
		return fmt.Errorf("job %s: unexpected outcome type %T", id, out)
	}
	for _, y := range yields {
		if !(y >= 0 && y <= 1) {
			return fmt.Errorf("job %s: yield %v outside [0,1]", id, y)
		}
	}
	if key, err := experiments.JobKey(own, engineOptions()); err != nil || key != id {
		return fmt.Errorf("job %s: outcome spec hashes to %s (%v)", id, key, err)
	}
	r.id, r.result = id, body
	return nil
}

// expectedKey is the JobKey of what r submitted, with the warm-start
// hint the server resolves from the client's own stored sweep. A
// resubmission expects its original's id.
func expectedKey(r *request) (string, error) {
	if r.repeat != nil {
		if r.repeat.id == "" {
			return "", fmt.Errorf("resubmission of a request that never verified")
		}
		return r.repeat.id, nil
	}
	job := r.job
	if r.warmFrom != nil {
		if r.warmFrom.sweep == nil {
			return "", fmt.Errorf("warm-start source sweep never verified")
		}
		sj := r.job.(experiments.SearchJob)
		sj.Spec.WarmStart = warmStartOf(r.warmFrom.sweep, sj.Spec)
		job = sj
	}
	return experiments.JobKey(job, engineOptions())
}

// warmStartOf is the hint a search resolves from one stored sweep: the
// best non-IBM point at the search's benchmark and σ among its aux
// variants, by yield (ties keep the first). It restates the engine's
// rule for a store holding exactly one matching sweep, so a server that
// resolves a different hint fails verification.
func warmStartOf(sw *experiments.SweepResult, s experiments.SearchSpec) *search.WarmStart {
	aux := map[int]bool{}
	for _, a := range s.AuxCounts {
		aux[a] = true
	}
	var best *experiments.SweepPoint
	for i := range sw.Points {
		p := &sw.Points[i]
		if p.Benchmark != s.Benchmark || p.Sigma != s.Sigma || !aux[p.AuxQubits] || p.Config == core.ConfigIBM {
			continue
		}
		if best == nil || p.Yield > best.Yield {
			best = p
		}
	}
	if best == nil {
		return nil
	}
	return &search.WarmStart{Aux: best.AuxQubits, Buses: best.Buses}
}
