package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names; a test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a qserve user sees, measured with tracing off.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "jobs/s"},
	{"latency_p50_s", "s"},
	{"latency_p75_s", "s"},
	{"cpu_s_per_job", "s"},
	{"peak_rss_mb", "MiB"},
	{"store_kib_per_job", "KiB"},
}

// perLayerMetrics come from the traced run: server.*, the cache hit
// ratios and metrics.points_per_job are read from qserve during the
// timed window; the rest from the in-process replay's spans and probes.
var perLayerMetrics = []metricDef{
	{"server.queue_wait_ms.p50", "ms"},
	{"server.run_ms.p50", "ms"},
	{"server.submit_ms.p50", "ms"},
	{"server.result_ms.p50", "ms"},
	{"server.events_per_job", "count"},
	{"server.retried_jobs", "count"},
	{"server.dedupe_ratio", "ratio"},
	{"yield.noise_cache.hit_ratio", "ratio"},
	{"collision.kernel_cache.hit_ratio", "ratio"},
	{"metrics.points_per_job", "count"},
	{"core.series_ms", "ms"},
	{"mapper.map_ms", "ms"},
	{"mapper.map_share", "ratio"},
	{"yield.noise_gen_ms", "ms"},
	{"yield.noise_gen_calls", "count"},
	{"collision.kernel_compile_us", "us"},
	{"collision.kernel_compile_calls", "count"},
	{"collision.sweep_ns_per_trial", "ns"},
	{"yield.estimate_share", "ratio"},
	{"search.run_self_ms", "ms"},
	{"search.run_share", "ratio"},
	{"search.proposals_per_s", "1/s"},
	{"search.evals_per_job", "count"},
	{"search.cond_skipped_frac", "ratio"},
	{"collision.preview1_ns", "ns"},
	{"yield.reestimate_us", "us"},
	{"runstore.put_ms", "ms"},
	{"runstore.journal_append_ms", "ms"},
	{"runstore.checkpoint_put_ms", "ms"},
	{"runstore.checkpoints_per_job", "count"},
	{"metrics.append_us", "us"},
	{"metrics.appends_per_job", "count"},
	{"experiments.resolve_ms", "ms"},
	{"unattributed_frac", "ratio"},
	{"replay.fidelity", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect orders computed values by their definitions; a definition
// without a value is a bug in the computation.
func collect(defs []metricDef, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// tally counts requests and their failures: failed, refused and
// unverified submissions, and failed metrics reads.
type tally struct {
	attempted, failed int
	verified          []outcome
	errs              []error
}

func count(outs []outcome) tally {
	var t tally
	for _, o := range outs {
		t.attempted++
		if o.err != nil {
			t.failed++
			t.errs = append(t.errs, o.err)
			continue
		}
		t.verified = append(t.verified, o)
		if o.metricsRead {
			t.attempted++
			if o.metricsErr != nil {
				t.failed++
				t.errs = append(t.errs, o.metricsErr)
			}
		}
	}
	return t
}

// computed are the verified requests that ran a job, not a dedupe read.
func computed(verified []outcome) []outcome {
	var out []outcome
	for _, o := range verified {
		if o.req.repeat == nil {
			out = append(out, o)
		}
	}
	return out
}

// endToEnd derives the user-visible metrics from a timed run.
func endToEnd(m *measurement) (map[string]metric, error) {
	t := count(m.outcomes)
	n := float64(len(t.verified))
	if n == 0 {
		return nil, fmt.Errorf("no verified results")
	}
	var lat []float64
	for _, o := range t.verified {
		lat = append(lat, o.latency.Seconds())
	}
	setup, err := median(m.setups)
	if err != nil {
		return nil, err
	}
	p50, err := median(lat)
	if err != nil {
		return nil, err
	}
	p75, err := percentile(lat, 0.75)
	if err != nil {
		return nil, fmt.Errorf("latency_p75_s: %w", err)
	}
	return collect(endToEndMetrics, map[string]float64{
		"setup_s":           setup,
		"jobs_per_s":        n / m.window.Seconds(),
		"latency_p50_s":     p50,
		"latency_p75_s":     p75,
		"cpu_s_per_job":     m.cpuSeconds / n,
		"peak_rss_mb":       m.peakRSSMiB,
		"store_kib_per_job": float64(m.storeBytes) / 1024 / n,
	})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// serverLayers derives the per-layer metrics read from qserve itself:
// each job's timestamps, read just after its result, client-side round
// trips and /v1/stats deltas over the timed window.
func serverLayers(m *measurement, vals map[string]float64) error {
	t := count(m.outcomes)
	jobs := computed(t.verified)
	if len(jobs) == 0 {
		return fmt.Errorf("no computed jobs")
	}
	var wait, run, submit, result []float64
	events, retried, deduped := 0, 0, 0
	for _, o := range t.verified {
		submit = append(submit, ms(o.submit))
		result = append(result, ms(o.result))
		if o.deduped {
			deduped++
		}
	}
	for _, o := range jobs {
		wait = append(wait, ms(o.times.Started.Sub(o.times.Submitted)))
		run = append(run, ms(o.times.Finished.Sub(o.times.Started)))
		events += o.events
		if o.retried {
			retried++
		}
	}
	for name, xs := range map[string][]float64{
		"server.queue_wait_ms.p50": wait, "server.run_ms.p50": run,
		"server.submit_ms.p50": submit, "server.result_ms.p50": result,
	} {
		v, err := median(xs)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		vals[name] = v
	}
	d := m.after.delta(m.before)
	vals["server.events_per_job"] = float64(events) / float64(len(jobs))
	vals["server.retried_jobs"] = float64(retried)
	vals["server.dedupe_ratio"] = float64(deduped) / float64(len(t.verified))
	vals["yield.noise_cache.hit_ratio"] = ratio(float64(d.NoiseCache.Hits), float64(d.NoiseCache.Hits+d.NoiseCache.Misses))
	vals["collision.kernel_cache.hit_ratio"] = ratio(float64(d.KernelCache.Hits), float64(d.KernelCache.Hits+d.KernelCache.Misses))
	vals["metrics.points_per_job"] = float64(d.Metrics.Appends) / float64(len(jobs))
	return nil
}

// layerTotals aggregates the replay's spans by name: calls (a probe
// span counts the calls it looped over) and summed self time.
type layerTotals struct {
	calls map[string]int
	self  map[string]int64
}

func totals(spans []span) layerTotals {
	lt := layerTotals{calls: map[string]int{}, self: map[string]int64{}}
	self := selfTimes(spans)
	for _, s := range spans {
		c := s.Calls
		if c == 0 {
			c = 1
		}
		lt.calls[s.Name] += c
		lt.self[s.Name] += self[s.ID]
	}
	return lt
}

// perCall is the mean self time of one call into layer, in ns: from the
// replay's direct calls when the sample made any, else from the layer's
// probe.
func (lt layerTotals) perCall(layer string) float64 {
	if lt.calls[layer] == 0 {
		layer = "probe." + layer
	}
	return ratio(float64(lt.self[layer]), float64(lt.calls[layer]))
}

// coverage returns, summed over jobs, the part of each job span's wall
// time that spans named name within that job cover (overlapping calls
// on the worker pool count once).
func coverage(spans []span, name string) int64 {
	jobs := map[string]span{}
	ivs := map[string][][2]int64{}
	for _, s := range spans {
		switch {
		case s.Name == "job":
			jobs[s.Job] = s
		case s.Name == name:
			ivs[s.Job] = append(ivs[s.Job], [2]int64{s.Start, s.End})
		}
	}
	var total int64
	for id, j := range jobs {
		total += covered(j.Start, j.End, ivs[id])
	}
	return total
}

// replayLayers derives the per-layer metrics of the traced replay.
func replayLayers(m *measurement, vals map[string]float64) error {
	r := m.replay
	if r == nil || len(r.jobs) == 0 {
		return fmt.Errorf("no replayed jobs")
	}
	lt := totals(r.spans)
	nj := float64(len(r.jobs))
	runs := map[string]time.Duration{}
	for _, o := range computed(count(m.outcomes).verified) {
		runs[o.req.id] = o.times.Finished.Sub(o.times.Started)
	}
	var wall, serverRun float64
	var evals, proposals int
	var checked, skipped uint64
	for _, j := range r.jobs {
		run, ok := runs[j.id]
		if !ok {
			return fmt.Errorf("replayed job %s is not a computed job of the window", j.id)
		}
		serverRun += float64(run)
		evals += j.evals
		proposals += j.proposals
		checked += j.checked
		skipped += j.skipped
	}
	for _, s := range r.spans {
		if s.Name == "job" {
			wall += float64(s.dur())
		}
	}
	selfRun := lt.self["search.run"]
	if lt.calls["search.run"] == 0 {
		selfRun, proposals = lt.self["probe.search.run"], r.probeProposals
	}
	usPerCall := func(layer string) float64 { return lt.perCall(layer) / 1e3 }
	msPerCall := func(layer string) float64 { return lt.perCall(layer) / 1e6 }
	share := func(layer string) float64 { return ratio(float64(coverage(r.spans, layer)), wall) }
	vals["core.series_ms"] = msPerCall("core.series")
	vals["mapper.map_ms"] = msPerCall("mapper.map")
	vals["mapper.map_share"] = share("mapper.map")
	vals["yield.noise_gen_ms"] = msPerCall("yield.noise_gen")
	vals["yield.noise_gen_calls"] = float64(r.noiseGens) / nj
	vals["collision.kernel_compile_us"] = usPerCall("collision.kernel_compile")
	vals["collision.kernel_compile_calls"] = float64(r.kernelCompiles) / nj
	vals["collision.sweep_ns_per_trial"] = lt.perCall("yield.estimate") / float64(engineOptions().YieldTrials)
	vals["yield.estimate_share"] = share("yield.estimate")
	vals["search.run_self_ms"] = msPerCall("search.run")
	vals["search.run_share"] = share("search.run")
	vals["search.proposals_per_s"] = ratio(float64(proposals), float64(selfRun)/1e9)
	vals["search.evals_per_job"] = float64(evals) / nj
	vals["search.cond_skipped_frac"] = ratio(float64(skipped), float64(checked+skipped))
	vals["collision.preview1_ns"] = lt.perCall("collision.preview1")
	vals["yield.reestimate_us"] = usPerCall("yield.reestimate")
	vals["runstore.put_ms"] = msPerCall("runstore.put")
	vals["runstore.journal_append_ms"] = msPerCall("runstore.journal_append")
	vals["runstore.checkpoint_put_ms"] = msPerCall("runstore.checkpoint_put")
	vals["runstore.checkpoints_per_job"] = float64(lt.calls["runstore.checkpoint_put"]) / nj
	vals["metrics.append_us"] = usPerCall("metrics.append")
	vals["metrics.appends_per_job"] = float64(lt.calls["metrics.append"]) / nj
	vals["experiments.resolve_ms"] = msPerCall("experiments.resolve")
	vals["unattributed_frac"] = ratio(float64(lt.self["job"]), wall)
	vals["replay.fidelity"] = ratio(wall, serverRun)
	return nil
}

// perLayer derives every per-layer metric of a traced run.
func perLayer(m *measurement) (map[string]metric, error) {
	vals := map[string]float64{}
	if err := serverLayers(m, vals); err != nil {
		return nil, err
	}
	if err := replayLayers(m, vals); err != nil {
		return nil, err
	}
	return collect(perLayerMetrics, vals)
}

// outputsDigest hashes the verified results of round 0, which every run
// completes whatever its speed, as sorted (id, result bytes) pairs. Two
// runs of one seed agree on it exactly when their outputs agree.
func outputsDigest(outs []outcome) (string, int) {
	byID := map[string][]byte{}
	for _, o := range outs {
		if o.err == nil && o.req.round == 0 {
			byID[o.req.id] = o.req.result
		}
	}
	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(h, "%s\n%d\n", id, len(byID[id]))
		h.Write(byID[id])
	}
	return hex.EncodeToString(h.Sum(nil)), len(ids)
}
