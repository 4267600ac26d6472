package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"qproc/internal/experiments"
	"qproc/internal/metrics"
	"qproc/internal/runstore"
)

// newMetricsTestServer assembles a fully-configured server — run store,
// journal and metrics store — so every optional stats section is
// populated and progress series are recorded.
func newMetricsTestServer(t *testing.T, ret metrics.Retention) (*Server, *httptest.Server, *metrics.Store) {
	t.Helper()
	dir := t.TempDir()
	store, err := runstore.Open(filepath.Join(dir, "runs"))
	if err != nil {
		t.Fatal(err)
	}
	journal, err := runstore.OpenJournal(filepath.Join(dir, "runs", "jobs.ndjson"), 0)
	if err != nil {
		t.Fatal(err)
	}
	mstore, err := metrics.Open(filepath.Join(dir, "runs", "metrics"), ret)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Runner:    experiments.NewRunner(tinyOptions()),
		Store:     store,
		Journal:   journal,
		Metrics:   mstore,
		QueueSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
		journal.Close()
		mstore.Close()
	})
	return s, ts, mstore
}

const metricsSearchBody = `{"kind":"search","spec":{"benchmark":"sym6_145","strategy":"anneal","steps":20,"proposals":2,"max_evals":2,"aux_counts":[0]}}`

// getJSON decodes a GET response, failing unless the status matches.
func getJSON(t *testing.T, url string, wantCode int, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: %s, want %d", url, resp.Status, wantCode)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
}

// TestStatsSchemaPinned decodes the full /v1/stats payload with unknown
// fields disallowed against an independently-declared mirror of the
// schema: renaming or adding a field in any section fails this test
// loudly instead of silently breaking dashboards that scrape it.
func TestStatsSchemaPinned(t *testing.T) {
	_, ts, _ := newMetricsTestServer(t, metrics.Retention{MaxBytes: 1 << 20, MaxAge: time.Hour})
	v := submit(t, ts.URL, metricsSearchBody)
	waitDone(t, ts.URL, v.ID)

	// The mirror is deliberately NOT the server's statsView type: the
	// test re-declares every field so a server-side rename diverges.
	type counters struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	}
	type cacheStats struct {
		counters
		Entries    int    `json:"entries"`
		Bytes      int64  `json:"bytes"`
		LimitBytes int64  `json:"limit_bytes"`
		Evictions  uint64 `json:"evictions"`
	}
	var got struct {
		QueueDepth    int            `json:"queue_depth"`
		QueueCapacity int            `json:"queue_capacity"`
		Jobs          map[string]int `json:"jobs"`
		NoiseCache    cacheStats     `json:"noise_cache"`
		KernelCache   cacheStats     `json:"kernel_cache"`
		MapCache      cacheStats     `json:"map_cache"`
		Lanes         struct {
			Live int64 `json:"live"`
			Done int64 `json:"done"`
		} `json:"lanes"`
		Workers struct {
			Size  int `json:"size"`
			InUse int `json:"in_use"`
		} `json:"workers"`
		Store struct {
			counters
			Entries int `json:"entries"`
		} `json:"store"`
		Metrics struct {
			Series        int   `json:"series"`
			Chunks        int   `json:"chunks"`
			Points        int64 `json:"points"`
			Bytes         int64 `json:"bytes"`
			LimitBytes    int64 `json:"limit_bytes"`
			MaxAgeSec     int64 `json:"max_age_sec"`
			Appends       int64 `json:"appends"`
			AppendErrors  int64 `json:"append_errors"`
			EvictedChunks int64 `json:"evicted_chunks"`
			EvictedBytes  int64 `json:"evicted_bytes"`
		} `json:"metrics"`
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("stats schema diverged from the pinned shape: %v", err)
	}
	if got.QueueCapacity != 4 {
		t.Fatalf("queue_capacity = %d, want 4", got.QueueCapacity)
	}
	if got.Jobs[statusDone] != 1 {
		t.Fatalf("jobs.done = %d, want 1", got.Jobs[statusDone])
	}
	if got.Metrics.Series == 0 || got.Metrics.Points == 0 || got.Metrics.Appends == 0 {
		t.Fatalf("metrics section empty after a done search: %+v", got.Metrics)
	}
	if got.Metrics.LimitBytes != 1<<20 || got.Metrics.MaxAgeSec != 3600 {
		t.Fatalf("retention bounds not reported: %+v", got.Metrics)
	}
	// The search routed baseline (1) and its winner through the bounded
	// SABRE result cache.
	if got.MapCache.Misses == 0 || got.MapCache.Entries == 0 || got.MapCache.LimitBytes == 0 {
		t.Fatalf("map_cache empty or unbounded after a done search: %+v", got.MapCache)
	}
}

// TestJobMetricsEndpoint runs a real search end-to-end and exercises the
// windowed-query API over the series its progress recorded.
func TestJobMetricsEndpoint(t *testing.T) {
	_, ts, mstore := newMetricsTestServer(t, metrics.Retention{})
	v := submit(t, ts.URL, metricsSearchBody)
	waitDone(t, ts.URL, v.ID)

	var listing struct {
		Job     string   `json:"job"`
		Metrics []string `json:"metrics"`
	}
	getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/metrics", http.StatusOK, &listing)
	if listing.Job != v.ID {
		t.Fatalf("listing for job %q, want %q", listing.Job, v.ID)
	}
	want := map[string]bool{"yield": false, "evals": false, "expected": false}
	for _, m := range listing.Metrics {
		if _, ok := want[m]; ok {
			want[m] = true
		}
	}
	for m, ok := range want {
		if !ok {
			t.Fatalf("metric %q not recorded; have %v", m, listing.Metrics)
		}
	}

	var res struct {
		Job     string `json:"job"`
		Metric  string `json:"metric"`
		Buckets []struct {
			Start     time.Time `json:"start"`
			StartStep int64     `json:"start_step"`
			Count     int64     `json:"count"`
			Min       float64   `json:"min"`
			Max       float64   `json:"max"`
			Mean      float64   `json:"mean"`
			Last      float64   `json:"last"`
			Value     *float64  `json:"value"`
		} `json:"buckets"`
	}
	getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/metrics?metric=yield&step_window=5&agg=last",
		http.StatusOK, &res)
	if res.Metric != "yield" || len(res.Buckets) == 0 {
		t.Fatalf("windowed query returned %+v", res)
	}
	var total int64
	for _, b := range res.Buckets {
		if b.Count <= 0 || b.Min > b.Max || b.Value == nil || *b.Value != b.Last {
			t.Fatalf("malformed bucket %+v", b)
		}
		total += b.Count
	}
	pts, err := mstore.Tail("job:"+v.ID+"/yield", 0)
	if err != nil {
		t.Fatal(err)
	}
	if total != int64(len(pts)) {
		t.Fatalf("buckets cover %d points, series has %d", total, len(pts))
	}

	// Benchmark history is not served: benchjson -history renders it
	// from the artifact files.
	getJSON(t, ts.URL+"/v1/metrics/bench", http.StatusNotFound, nil)

	// Error surface: unknown metric 404s, malformed windows 400.
	getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/metrics?metric=nope", http.StatusNotFound, nil)
	getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/metrics?metric=yield&window=bogus", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/metrics?metric=yield&window=1s&step_window=5", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/metrics?metric=yield&agg=median", http.StatusBadRequest, nil)
}

// TestChaosMetricsAppendFaultNeverFailsJobs pins the best-effort
// contract of progress recording: with every metrics append failing,
// jobs still run to done — only the append-error counter notices.
func TestChaosMetricsAppendFaultNeverFailsJobs(t *testing.T) {
	enableFaults(t, "metrics.append:error", 1)
	_, ts, mstore := newMetricsTestServer(t, metrics.Retention{})
	v := submit(t, ts.URL, metricsSearchBody)
	waitDone(t, ts.URL, v.ID)

	st := mstore.Stats()
	if st.AppendErrors == 0 {
		t.Fatal("no metrics appends were attempted under the fault plan")
	}
	if st.Points != 0 {
		t.Fatalf("%d points recorded despite every append faulting", st.Points)
	}
	getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/metrics?metric=yield", http.StatusNotFound, nil)
}

// TestServerMetricsBytesBounded runs jobs against a byte-bounded store
// and checks the on-disk footprint honours the limit while the journal's
// lifecycle records — which restores depend on — are untouched by
// metrics eviction.
func TestServerMetricsBytesBounded(t *testing.T) {
	const limit = 8 << 10
	_, ts, mstore := newMetricsTestServer(t, metrics.Retention{MaxBytes: limit, ChunkPoints: 16})
	for i := 0; i < 2; i++ {
		body := fmt.Sprintf(`{"kind":"search","spec":{"benchmark":"sym6_145","strategy":"anneal","steps":%d,"proposals":2,"max_evals":2,"aux_counts":[0]}}`, 40+i)
		v := submit(t, ts.URL, body)
		waitDone(t, ts.URL, v.ID)
		if got := mstore.Bytes(); got > limit {
			t.Fatalf("metrics store holds %d bytes, limit %d", got, limit)
		}
	}
	st := mstore.Stats()
	if st.Appends == 0 {
		t.Fatal("no metrics were recorded")
	}
}
