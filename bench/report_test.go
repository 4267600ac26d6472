package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPerLayerOutlivesJobRetention: qserve keeps only its newest finished
// jobs (-retain), so by the end of a long run the early jobs the replay
// samples are gone from the server. Timestamps read just after each
// result must still serve every server-side metric and replay.fidelity.
func TestPerLayerOutlivesJobRetention(t *testing.T) {
	const jobs, retain = 300, 2
	var mu sync.Mutex
	held := map[string]jobTimes{}
	var order []string
	finish := func(jt jobTimes) {
		mu.Lock()
		defer mu.Unlock()
		held[jt.ID] = jt
		order = append(order, jt.ID)
		if len(order) > retain {
			delete(held, order[0])
			order = order[1:]
		}
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		jt, ok := held[strings.TrimPrefix(r.URL.Path, "/v1/jobs/")]
		mu.Unlock()
		if !ok {
			http.NotFound(w, r)
			return
		}
		_ = json.NewEncoder(w).Encode(jt)
	}))
	defer srv.Close()
	c := newClient(srv.URL)
	defer c.close()
	ctx := context.Background()

	m := &measurement{}
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < jobs; i++ {
		id := fmt.Sprintf("job%03d", i)
		sub := t0.Add(time.Duration(i) * time.Second)
		// Queue wait 10 ms, run 90+i ms.
		finish(jobTimes{ID: id, Submitted: sub, Started: sub.Add(10 * time.Millisecond),
			Finished: sub.Add(time.Duration(100+i) * time.Millisecond)})
		jt, err := c.readTimes(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		m.outcomes = append(m.outcomes, outcome{req: &request{id: id}, times: jt})
	}
	if _, err := c.readTimes(ctx, "job000"); err == nil {
		t.Fatal("the server still holds the first job; the test would not exercise retention")
	}
	// The replay sample is the first job; its replay took 45 ms.
	m.replay = &replayResult{
		jobs:  []*replayed{{id: "job000"}},
		spans: []span{{ID: 1, Name: "job", Job: "job000", End: int64(45 * time.Millisecond)}},
	}

	vals := map[string]float64{}
	if err := serverLayers(m, vals); err != nil {
		t.Fatal(err)
	}
	if err := replayLayers(m, vals); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"server.queue_wait_ms.p50": 10,
		"server.run_ms.p50":        239.5, // 90 + 149.5, the median of i = 0..299
		"replay.fidelity":          0.5,   // 45 ms ÷ the first job's 90 ms
	} {
		if got := vals[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
