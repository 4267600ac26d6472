package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// seedJob is one committed seed directory under testdata/seeds: a
// submit body, job.json ({"kind":…,"spec":…}), and outcome.json, the
// outcome its job wrote.
type seedJob struct {
	kind    string
	spec    []byte
	outcome []byte
}

// readSeeds loads every seed directory: a sweep, a square search whose
// best design carries a multi-qubit bus, and a chimera search.
func readSeeds(f *testing.F) []seedJob {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "seeds", "*", "job.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed jobs under testdata/seeds (%v)", err)
	}
	var seeds []seedJob
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		var req struct {
			Kind string          `json:"kind"`
			Spec json.RawMessage `json:"spec"`
		}
		if err := json.Unmarshal(raw, &req); err != nil {
			f.Fatalf("%s: %v", p, err)
		}
		outcome, err := os.ReadFile(filepath.Join(filepath.Dir(p), "outcome.json"))
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, seedJob{kind: req.Kind, spec: req.Spec, outcome: outcome})
	}
	return seeds
}

// FuzzParseJob: the spec of an accepted job's normalised form parses
// back to a job with the same content address.
func FuzzParseJob(f *testing.F) {
	for _, s := range readSeeds(f) {
		f.Add(s.kind, s.spec)
	}
	opt := QuickOptions()
	f.Fuzz(func(t *testing.T, kind string, spec []byte) {
		job, err := ParseJob(kind, spec)
		if err != nil {
			return
		}
		key, err := JobKey(job, opt)
		if err != nil {
			t.Fatalf("accepted job has no key: %v", err)
		}
		raw, err := SpecJSON(job.Normalize(opt))
		if err != nil {
			t.Fatalf("normalised spec does not encode: %v", err)
		}
		again, err := ParseJob(kind, raw)
		if err != nil {
			t.Fatalf("normalised spec %s does not parse: %v", raw, err)
		}
		if key2, err := JobKey(again, opt); err != nil || key2 != key {
			t.Fatalf("normalised spec %s keys to %s (%v), the job to %s", raw, key2, err, key)
		}
	})
}

// FuzzDecodeOutcome: an outcome that decodes writes bytes that decode
// and write back to the same bytes.
func FuzzDecodeOutcome(f *testing.F) {
	for _, s := range readSeeds(f) {
		f.Add(s.kind, s.outcome)
	}
	write := func(t *testing.T, o Outcome) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := o.WriteJSON(&buf); err != nil {
			t.Fatalf("decoded outcome does not write: %v", err)
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, kind string, data []byte) {
		out, err := DecodeOutcome(kind, data)
		if err != nil {
			return
		}
		first := write(t, out)
		again, err := DecodeOutcome(kind, first)
		if err != nil {
			t.Fatalf("written outcome does not decode: %v\n%s", err, first)
		}
		if second := write(t, again); !bytes.Equal(first, second) {
			t.Fatalf("outcome bytes moved on a second round trip:\n%s\n---\n%s", first, second)
		}
	})
}
