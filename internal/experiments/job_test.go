package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"qproc/internal/core"
	"qproc/internal/search"
)

func TestJobKeyCanonical(t *testing.T) {
	opt := tinyOptions()

	// An empty spec and its explicit defaults describe the same work.
	k1, err := JobKey(SweepJob{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := JobKey(SweepJob{Spec: SweepSpec{}.withDefaults()}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("defaulted and explicit specs hash differently: %s vs %s", k1, k2)
	}

	// Parallelism does not change the result, so it must not change the
	// key.
	par := opt
	par.Parallel = !opt.Parallel
	par.Workers = 7
	k3, err := JobKey(SweepJob{}, par)
	if err != nil {
		t.Fatal(err)
	}
	if k3 != k1 {
		t.Fatal("worker settings changed the content address")
	}

	// The seed does change the result.
	seeded := opt
	seeded.Seed = opt.Seed + 1
	k4, err := JobKey(SweepJob{}, seeded)
	if err != nil {
		t.Fatal(err)
	}
	if k4 == k1 {
		t.Fatal("seed change did not change the content address")
	}

	// Different kinds never collide, even over similar specs.
	k5, err := JobKey(SearchJob{Spec: SearchSpec{Benchmark: "sym6_145"}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if k5 == k1 {
		t.Fatal("sweep and search share a content address")
	}
}

func TestParseJob(t *testing.T) {
	j, err := ParseJob("sweep", json.RawMessage(`{"benchmarks":["sym6_145"],"sigmas":[0.03]}`))
	if err != nil {
		t.Fatal(err)
	}
	sj, ok := j.(SweepJob)
	if !ok || len(sj.Spec.Benchmarks) != 1 || sj.Spec.Sigmas[0] != 0.03 {
		t.Fatalf("parsed %#v", j)
	}

	if _, err := ParseJob("search", json.RawMessage(`{"benchmark":"sym6_145","strategy":"beam"}`)); err != nil {
		t.Fatal(err)
	}
	// An empty spec is a legal (all-defaults) job.
	if _, err := ParseJob("sweep", nil); err != nil {
		t.Fatal(err)
	}

	// Typoed fields fail loudly instead of sweeping the default space.
	if _, err := ParseJob("sweep", json.RawMessage(`{"benchmrks":["x"]}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ParseJob("anneal", nil); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestProgressEvents(t *testing.T) {
	sp := SweepProgress{Done: 2, Total: 4, Cell: SweepCell{Benchmark: "b", Aux: 1, Sigma: 0.03}, Err: errors.New("boom")}
	e := sp.Event()
	if e.Done != 2 || e.Total != 4 || e.Err != "boom" || !strings.Contains(e.Message, "b aux=1") {
		t.Fatalf("sweep event %+v", e)
	}
	se := SearchProgress{Step: 3, Total: 10, Evals: 2, BestYield: 0.5, BestExpected: 1.25}.Event()
	if se.Done != 3 || se.Total != 10 || !strings.Contains(se.Message, "0.5000") {
		t.Fatalf("search event %+v", se)
	}
}

// TestSchemaVersionStamp: every artefact carries the stamp, and files
// written before the stamp existed still decode.
func TestSchemaVersionStamp(t *testing.T) {
	r := NewRunner(tinyOptions())
	res, err := r.Sweep(context.Background(), SweepSpec{
		Benchmarks: []string{"sym6_145"},
		Configs:    []core.Config{core.ConfigIBM},
		Sigmas:     []float64{0.03},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := marshalJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	var probe struct {
		SchemaVersion int `json:"schema_version"`
	}
	if err := json.Unmarshal(payload, &probe); err != nil {
		t.Fatal(err)
	}
	if probe.SchemaVersion != SchemaVersion {
		t.Fatalf("schema_version = %d, want %d", probe.SchemaVersion, SchemaVersion)
	}

	// A pre-stamp file (no schema_version field) still decodes.
	legacy := strings.Replace(string(payload), `"schema_version": 1,`, "", 1)
	back, err := ReadSweepJSON(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if back.SchemaVersion != 0 || len(back.Points) != len(res.Points) {
		t.Fatalf("legacy decode: version %d, %d points", back.SchemaVersion, len(back.Points))
	}
}

// TestParseJobBoundsLanes: a portfolio spec may ask for at most
// search.MaxLanes lanes; beyond that ParseJob refuses it, naming the
// field, before any lane is built.
func TestParseJobBoundsLanes(t *testing.T) {
	spec := func(lanes int) json.RawMessage {
		return json.RawMessage(fmt.Sprintf(`{"benchmark":"sym6_145","lanes":%d}`, lanes))
	}
	if _, err := ParseJob("portfolio", spec(search.MaxLanes)); err != nil {
		t.Fatalf("lanes = MaxLanes rejected: %v", err)
	}
	_, err := ParseJob("portfolio", spec(search.MaxLanes+1))
	if err == nil || !strings.Contains(err.Error(), "lanes") {
		t.Fatalf("lanes = MaxLanes+1: err = %v, want an error naming lanes", err)
	}
}
