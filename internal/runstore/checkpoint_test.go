package runstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"testing"

	"qproc/internal/faultinject"
)

const ckKey = "ab12cd34"

func TestCheckpointPutGetDelete(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if data, err := s.GetCheckpoint(ckKey); err != nil || data != nil {
		t.Fatalf("fresh store: GetCheckpoint = %q, %v; want nil, nil", data, err)
	}
	payload := []byte(`{"schema":1,"strategy":"anneal"}`)
	if err := s.PutCheckpoint(ckKey, payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetCheckpoint(ckKey)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("GetCheckpoint = %q, want %q", got, payload)
	}
	// Re-put replaces.
	payload2 := []byte(`{"schema":1,"strategy":"beam"}`)
	if err := s.PutCheckpoint(ckKey, payload2); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.GetCheckpoint(ckKey); !bytes.Equal(got, payload2) {
		t.Fatalf("after re-put GetCheckpoint = %q, want %q", got, payload2)
	}
	if err := s.DeleteCheckpoint(ckKey); err != nil {
		t.Fatal(err)
	}
	if data, err := s.GetCheckpoint(ckKey); err != nil || data != nil {
		t.Fatalf("after delete: GetCheckpoint = %q, %v; want nil, nil", data, err)
	}
	// Deleting again is a no-op, not an error.
	if err := s.DeleteCheckpoint(ckKey); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointCorruptionIsAMiss: a checkpoint whose digest no longer
// matches is removed and reported as a miss — a resume never sees
// corrupt bytes.
func TestCheckpointCorruptionIsAMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutCheckpoint(ckKey, []byte(`{"schema":1}`)); err != nil {
		t.Fatal(err)
	}
	path := s.checkpointPath(ckKey)

	// Flip the payload under the recorded digest.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cf checkpointFile
	if err := json.Unmarshal(raw, &cf); err != nil {
		t.Fatal(err)
	}
	cf.Data = json.RawMessage(`{"schema":2}`)
	tampered, _ := json.Marshal(cf)
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if data, err := s.GetCheckpoint(ckKey); err != nil || data != nil {
		t.Fatalf("tampered checkpoint served: %q, %v", data, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("tampered checkpoint was not removed")
	}

	// A syntactically broken file is likewise a miss.
	if err := os.WriteFile(path, []byte(`{garbage`), 0o644); err != nil {
		t.Fatal(err)
	}
	if data, err := s.GetCheckpoint(ckKey); err != nil || data != nil {
		t.Fatalf("broken checkpoint served: %q, %v", data, err)
	}
}

// TestCheckpointNotIndexed: checkpoints are scratch state, not runs —
// they never appear in the index, and rebuilding the index over a
// checkpoint-only run directory skips it.
func TestCheckpointNotIndexed(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutCheckpoint(ckKey, []byte(`{"schema":1}`)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("checkpoint added %d index entries", s.Len())
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 0 {
		t.Fatalf("rebuilt index adopted a checkpoint-only dir: %d entries", s2.Len())
	}
	if data, err := s2.GetCheckpoint(ckKey); err != nil || data == nil {
		t.Fatalf("checkpoint lost across reopen: %q, %v", data, err)
	}
}

// TestCheckpointRemovedWithRun: evicting a run removes its checkpoint
// sidecar along with the run directory.
func TestCheckpointRemovedWithRun(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(ckKey, "search", "", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCheckpoint(ckKey, []byte(`{"schema":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Discard(ckKey); err != nil {
		t.Fatal(err)
	}
	if data, err := s.GetCheckpoint(ckKey); err != nil || data != nil {
		t.Fatalf("checkpoint survived eviction: %q, %v", data, err)
	}
}

// TestChaosStoreFaultSites: injected faults at the store and checkpoint
// sites surface as errors wrapping faultinject.ErrInjected, and the
// store recovers completely once the plan is disabled.
func TestChaosStoreFaultSites(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := "store.put:error;store.get:error;checkpoint.put:error;checkpoint.get:error"
	plan, err := faultinject.Parse(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(plan)
	defer faultinject.Disable()

	if _, err := s.Put(ckKey, "search", "", []byte(`{}`)); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Put under fault: %v", err)
	}
	if _, _, err := s.Get(ckKey); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Get under fault: %v", err)
	}
	if err := s.PutCheckpoint(ckKey, []byte(`{}`)); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("PutCheckpoint under fault: %v", err)
	}
	if _, err := s.GetCheckpoint(ckKey); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("GetCheckpoint under fault: %v", err)
	}

	faultinject.Disable()
	if _, err := s.Put(ckKey, "search", "", []byte(`{}`)); err != nil {
		t.Fatalf("Put after disable: %v", err)
	}
	if payload, _, err := s.Get(ckKey); err != nil || payload == nil {
		t.Fatalf("Get after disable: %q, %v", payload, err)
	}
}
