package main

import (
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload for two requests against a freshly
// built qserve, then replays them in-process: results must verify, the
// replay must reproduce the server's outcomes byte for byte, and every
// per-layer metric must be computable.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs qserve")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{root: root, dir: t.TempDir(), setups: 1, lim: limits{seconds: 1e9, maxRequests: 2}, trace: true}
			m, err := measure(w, 1, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tl := count(m.outcomes); tl.failed > 0 || len(tl.verified) != 2 {
				t.Fatalf("%d verified, %d failed: %v", len(tl.verified), tl.failed, tl.errs)
			}
			if m.replay.mismatch != nil {
				t.Fatal(m.replay.mismatch)
			}
			if _, err := perLayer(m); err != nil {
				t.Fatal(err)
			}
		})
	}
}
