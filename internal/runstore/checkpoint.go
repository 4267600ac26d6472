package runstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"qproc/internal/faultinject"
	"qproc/internal/metrics"
)

// checkpointFile wraps a search checkpoint with its own digest so a
// torn or corrupted write is detected on read and treated as a miss —
// a resume from a bad checkpoint must restart cold, never run wrong.
type checkpointFile struct {
	SHA256 string          `json:"sha256"`
	Size   int64           `json:"size"`
	Data   json.RawMessage `json:"data"`
}

// checkpointPath is the sidecar file inside a run directory holding the
// job's latest resumable checkpoint. It lives next to (and is deleted
// with) the run it belongs to, but is never listed as a run (it has no
// entry file): checkpoints are scratch state for one in-flight job, not
// content-addressed results.
func (s *Store) checkpointPath(key string) string {
	return filepath.Join(s.runDir(key), "checkpoint.json")
}

// PutCheckpoint atomically stores data as the latest checkpoint for
// key, replacing any previous one. The write is temp-file + rename, so
// a crash mid-save leaves the previous checkpoint intact.
func (s *Store) PutCheckpoint(key string, data []byte) error {
	if err := validKey(key); err != nil {
		return err
	}
	if err := faultinject.Check(faultinject.SiteCheckpointPut); err != nil {
		return fmt.Errorf("runstore: checkpoint: %w", err)
	}
	sum := sha256.Sum256(data)
	raw, err := json.Marshal(checkpointFile{
		SHA256: hex.EncodeToString(sum[:]),
		Size:   int64(len(data)),
		Data:   json.RawMessage(data),
	})
	if err != nil {
		return fmt.Errorf("runstore: checkpoint: %w", err)
	}
	if err := os.MkdirAll(s.runDir(key), 0o755); err != nil {
		return fmt.Errorf("runstore: checkpoint: %w", err)
	}
	if err := metrics.AtomicWrite(s.checkpointPath(key), raw); err != nil {
		return fmt.Errorf("runstore: checkpoint: %w", err)
	}
	return nil
}

// GetCheckpoint returns the stored checkpoint payload for key, or
// (nil, nil) when none exists. A checkpoint that fails its digest or
// size check is removed and reported as a miss: the caller restarts
// cold rather than resuming from corrupt state.
func (s *Store) GetCheckpoint(key string) ([]byte, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	if err := faultinject.Check(faultinject.SiteCheckpointGet); err != nil {
		return nil, fmt.Errorf("runstore: checkpoint: %w", err)
	}
	raw, err := os.ReadFile(s.checkpointPath(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("runstore: checkpoint: %w", err)
	}
	var cf checkpointFile
	if err := json.Unmarshal(raw, &cf); err != nil {
		_ = os.Remove(s.checkpointPath(key))
		return nil, nil
	}
	sum := sha256.Sum256(cf.Data)
	if hex.EncodeToString(sum[:]) != cf.SHA256 || int64(len(cf.Data)) != cf.Size {
		_ = os.Remove(s.checkpointPath(key))
		return nil, nil
	}
	return cf.Data, nil
}

// DeleteCheckpoint removes key's checkpoint if present. Jobs reaching a
// terminal state call this so the store never accumulates stale resume
// state for finished work.
func (s *Store) DeleteCheckpoint(key string) error {
	if err := validKey(key); err != nil {
		return err
	}
	if err := os.Remove(s.checkpointPath(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("runstore: checkpoint: %w", err)
	}
	return nil
}
