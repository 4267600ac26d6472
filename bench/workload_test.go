package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"qproc/internal/experiments"
)

// draw hands out the first n requests of a workload's streams, taking
// from each stream in turn like the clients do.
func draw(t *testing.T, w workload, seed int64, n int) []*request {
	t.Helper()
	g := &gate{lim: limits{seconds: 1e9, maxRequests: n}, start: time.Now()}
	streams := w.streams(seed)
	var out []*request
	for i := 0; ; i++ {
		r := streams[i%len(streams)].next(g)
		if r == nil {
			return out
		}
		out = append(out, r)
	}
}

func TestStreamsAreDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := draw(t, w, 7, 60), draw(t, w, 7, 60)
		other := draw(t, w, 8, 60)
		if len(a) != 60 || len(b) != 60 {
			t.Fatalf("%s: drew %d and %d requests, want 60", w.name, len(a), len(b))
		}
		same := true
		for i := range a {
			if a[i].kind != b[i].kind || !bytes.Equal(a[i].spec, b[i].spec) {
				t.Fatalf("%s: request %d differs between two draws of one seed:\n%s\n%s", w.name, i, a[i].spec, b[i].spec)
			}
			same = same && bytes.Equal(a[i].spec, other[i].spec)
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 drew identical requests", w.name)
		}
	}
}

// TestJobKeysAreFresh checks that no request of a run dedupes onto an
// earlier job of the same run (its warm-up included), apart from
// mixed-store's intended resubmissions.
func TestJobKeysAreFresh(t *testing.T) {
	opt := engineOptions()
	for _, w := range workloads {
		key, err := experiments.JobKey(w.warmup().job, opt)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]int{key: -1}
		// Enough requests to outlast one pass over a σ pool.
		repeats := 0
		for i, r := range draw(t, w, 3, 200) {
			key, err := experiments.JobKey(r.job, opt)
			if err != nil {
				t.Fatalf("%s request %d: %v", w.name, i, err)
			}
			prev, dup := seen[key]
			if r.repeat != nil {
				repeats++
				if !dup || prev < 0 || !bytes.Equal(r.spec, r.repeat.spec) {
					t.Errorf("%s request %d repeats a request never sent", w.name, i)
				}
				continue
			}
			if dup {
				t.Errorf("%s request %d: JobKey already used by request %d", w.name, i, prev)
			}
			seen[key] = i
		}
		if wantRepeats := w.name == "mixed-store"; (repeats > 0) != wantRepeats {
			t.Errorf("%s: %d resubmissions", w.name, repeats)
		}
	}
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var doc struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []named, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d, the code %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the code %s [%s]",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndMetrics)
	check("per_layer", doc.PerLayer, perLayerMetrics)
	var names []metricDef
	for _, w := range workloads {
		names = append(names, metricDef{name: w.name})
	}
	check("workloads", doc.Workloads, names)
}
