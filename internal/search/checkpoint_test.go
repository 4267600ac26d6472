package search

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"qproc/internal/yield"
)

// runCheckpointed drives Run with a Save hook that serialises every
// checkpoint (so the test also exercises the wire format) and returns
// the final result plus the captured encodings.
func runCheckpointed(t *testing.T, opt Options, every int) (*Result, [][]byte) {
	t.Helper()
	c := testCircuit(t)
	var saved [][]byte
	o := opt
	o.Checkpoint = &CheckpointOptions{Every: every, Save: func(cp *Checkpoint) {
		data, err := cp.Encode()
		if err != nil {
			t.Fatalf("encoding checkpoint: %v", err)
		}
		saved = append(saved, data)
	}}
	res, err := Run(context.Background(), c, o, yield.NewNoiseCache(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res, saved
}

// resumeFrom re-runs with the given encoded checkpoint as the resume
// point.
func resumeFrom(t *testing.T, opt Options, data []byte) *Result {
	t.Helper()
	c := testCircuit(t)
	cp, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatalf("decoding checkpoint: %v", err)
	}
	o := opt
	o.Checkpoint = &CheckpointOptions{Resume: cp}
	res, err := Run(context.Background(), c, o, yield.NewNoiseCache(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCheckpointResumeMatchesUninterrupted is the core restore
// guarantee for single-lane runs: checkpointing changes nothing, and
// resuming from any saved barrier reproduces the uninterrupted result
// bit-identically — winner, trace, counters and condition statistics.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	for _, tc := range []struct {
		strategy Strategy
		every    int
	}{
		{Anneal, 7},
		{Beam, 1},
	} {
		t.Run(string(tc.strategy), func(t *testing.T) {
			opt := testOptions(tc.strategy)
			if tc.strategy == Beam {
				// Enough budget that the beam survives several depths and
				// actually crosses checkpoint barriers mid-run.
				opt.MaxEvals = 40
			}
			c := testCircuit(t)
			base, err := Run(context.Background(), c, opt, yield.NewNoiseCache(), nil)
			if err != nil {
				t.Fatal(err)
			}
			ckRes, saved := runCheckpointed(t, opt, tc.every)
			resultsEqual(t, base, ckRes)
			if base.CondChecks != ckRes.CondChecks || base.CondSkipped != ckRes.CondSkipped {
				t.Fatalf("checkpointing changed condition stats: %d/%d vs %d/%d",
					base.CondChecks, base.CondSkipped, ckRes.CondChecks, ckRes.CondSkipped)
			}
			if len(saved) == 0 {
				t.Fatal("no checkpoint was saved mid-run")
			}
			for _, i := range []int{0, len(saved) / 2, len(saved) - 1} {
				resumed := resumeFrom(t, opt, saved[i])
				resultsEqual(t, base, resumed)
				if base.CondChecks != resumed.CondChecks || base.CondSkipped != resumed.CondSkipped {
					t.Fatalf("resume from checkpoint %d changed condition stats: %d/%d vs %d/%d",
						i, base.CondChecks, base.CondSkipped, resumed.CondChecks, resumed.CondSkipped)
				}
			}
		})
	}
}

// TestCheckpointResumeAfterCancel is the interruption scenario end to
// end inside the engine: a run cancelled mid-flight leaves its last
// checkpoint behind, and resuming from it completes with the exact
// result the uninterrupted run produces.
func TestCheckpointResumeAfterCancel(t *testing.T) {
	opt := testOptions(Anneal)
	c := testCircuit(t)
	base, err := Run(context.Background(), c, opt, yield.NewNoiseCache(), nil)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var saved [][]byte
	o := opt
	o.Checkpoint = &CheckpointOptions{Every: 5, Save: func(cp *Checkpoint) {
		data, err := cp.Encode()
		if err != nil {
			t.Fatalf("encoding checkpoint: %v", err)
		}
		saved = append(saved, data)
		if len(saved) == 2 {
			cancel() // interrupt right after the second barrier
		}
	}}
	_, err = Run(ctx, c, o, yield.NewNoiseCache(), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	if len(saved) < 2 {
		t.Fatalf("only %d checkpoints saved before the cancel", len(saved))
	}
	resumed := resumeFrom(t, opt, saved[len(saved)-1])
	resultsEqual(t, base, resumed)
}

// TestPortfolioCheckpointResumeMatchesUninterrupted is the acceptance
// pin: a portfolio interrupted at an exchange barrier and resumed from
// its checkpoint produces a bit-identical result — winner, per-lane
// traces, exchange count — to the uninterrupted run.
func TestPortfolioCheckpointResumeMatchesUninterrupted(t *testing.T) {
	c := testCircuit(t)
	opt := portfolioOptions()
	pf := PortfolioOptions{Lanes: 3, ExchangeEvery: 10}

	base, err := RunPortfolio(context.Background(), c, opt, pf, yield.NewNoiseCache(), nil)
	if err != nil {
		t.Fatal(err)
	}

	var saved [][]byte
	o := opt
	o.Checkpoint = &CheckpointOptions{Save: func(cp *Checkpoint) {
		data, err := cp.Encode()
		if err != nil {
			t.Fatalf("encoding checkpoint: %v", err)
		}
		saved = append(saved, data)
	}}
	ckRes, err := RunPortfolio(context.Background(), c, o, pf, yield.NewNoiseCache(), nil)
	if err != nil {
		t.Fatal(err)
	}
	portfolioResultsEqual(t, base, ckRes)
	if len(saved) == 0 {
		t.Fatal("no portfolio checkpoint was saved at a barrier")
	}

	for _, i := range []int{0, len(saved) - 1} {
		cp, err := DecodeCheckpoint(saved[i])
		if err != nil {
			t.Fatal(err)
		}
		r := opt
		r.Checkpoint = &CheckpointOptions{Resume: cp}
		resumed, err := RunPortfolio(context.Background(), c, r, pf, yield.NewNoiseCache(), nil)
		if err != nil {
			t.Fatalf("resume from barrier checkpoint %d: %v", i, err)
		}
		portfolioResultsEqual(t, base, resumed)
	}
}

// TestCheckpointEncodeRoundTrip pins the wire format: decode(encode(x))
// re-encodes to the same bytes, and Evals sums the lanes.
func TestCheckpointEncodeRoundTrip(t *testing.T) {
	opt := testOptions(Anneal)
	_, saved := runCheckpointed(t, opt, 13)
	if len(saved) == 0 {
		t.Fatal("no checkpoint saved")
	}
	cp, err := DecodeCheckpoint(saved[0])
	if err != nil {
		t.Fatal(err)
	}
	again, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved[0], again) {
		t.Fatal("checkpoint did not survive an encode/decode round trip byte-identically")
	}
	if cp.Evals() <= 0 {
		t.Fatalf("checkpoint Evals() = %d, want > 0 mid-run", cp.Evals())
	}
	if cp.Schema != CheckpointSchema || cp.Strategy != Anneal || len(cp.Lanes) != 1 {
		t.Fatalf("unexpected checkpoint header: %+v", cp)
	}
}

// TestCheckpointResumeRejectsMismatches: every malformed or mismatched
// resume fails with ErrBadCheckpoint (so callers restart cold), never
// with a silent wrong-answer run.
func TestCheckpointResumeRejectsMismatches(t *testing.T) {
	c := testCircuit(t)
	opt := testOptions(Anneal)
	_, saved := runCheckpointed(t, opt, 13)
	if len(saved) == 0 {
		t.Fatal("no checkpoint saved")
	}
	cp, err := DecodeCheckpoint(saved[0])
	if err != nil {
		t.Fatal(err)
	}

	if _, err := DecodeCheckpoint([]byte("{broken")); !errors.Is(err, ErrBadCheckpoint) {
		t.Errorf("broken JSON: err = %v, want ErrBadCheckpoint", err)
	}
	if _, err := DecodeCheckpoint([]byte(`{"schema":999}`)); !errors.Is(err, ErrBadCheckpoint) {
		t.Errorf("wrong schema: err = %v, want ErrBadCheckpoint", err)
	}

	// Strategy mismatch: an anneal checkpoint into a beam run.
	beamOpt := testOptions(Beam)
	beamOpt.Checkpoint = &CheckpointOptions{Resume: cp}
	if _, err := Run(context.Background(), c, beamOpt, yield.NewNoiseCache(), nil); !errors.Is(err, ErrBadCheckpoint) {
		t.Errorf("strategy mismatch: err = %v, want ErrBadCheckpoint", err)
	}

	// A single-lane checkpoint into a portfolio run (lane count mismatch).
	pOpt := portfolioOptions()
	pOpt.Checkpoint = &CheckpointOptions{Resume: cp}
	if _, err := RunPortfolio(context.Background(), c, pOpt, PortfolioOptions{Lanes: 3}, yield.NewNoiseCache(), nil); !errors.Is(err, ErrBadCheckpoint) {
		t.Errorf("portfolio mismatch: err = %v, want ErrBadCheckpoint", err)
	}

	// A state that no longer reconstructs (aux variant not configured).
	narrow := testOptions(Anneal)
	narrow.AuxCounts = []int{0}
	_, wideSaved := runCheckpointed(t, testOptions(Anneal), 13)
	wcp, err := DecodeCheckpoint(wideSaved[len(wideSaved)-1])
	if err != nil {
		t.Fatal(err)
	}
	hasAux1 := false
	for _, rec := range wcp.Memo {
		if rec.State.Aux != 0 {
			hasAux1 = true
		}
	}
	if hasAux1 {
		narrow.Checkpoint = &CheckpointOptions{Resume: wcp}
		if _, err := Run(context.Background(), c, narrow, yield.NewNoiseCache(), nil); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("unreconstructable state: err = %v, want ErrBadCheckpoint", err)
		}
	}
}

// BenchmarkCheckpointWrite / BenchmarkCheckpointRestore measure the
// serialisation cost of a real mid-run checkpoint — what one barrier
// save and one restart resume pay respectively.
func benchCheckpoint(b *testing.B) *Checkpoint {
	b.Helper()
	c := testCircuit(b)
	opt := testOptions(Anneal)
	var last *Checkpoint
	opt.Checkpoint = &CheckpointOptions{Every: 10, Save: func(cp *Checkpoint) { last = cp }}
	if _, err := Run(context.Background(), c, opt, yield.NewNoiseCache(), nil); err != nil {
		b.Fatal(err)
	}
	if last == nil {
		b.Fatal("no checkpoint captured")
	}
	return last
}

func BenchmarkCheckpointWrite(b *testing.B) {
	cp := benchCheckpoint(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckpointRestore(b *testing.B) {
	cp := benchCheckpoint(b)
	data, err := cp.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeCheckpoint(data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCheckpointFormatCompatibility resumes checkpoints committed under
// testdata, written by an earlier release of the engine: a single-lane
// anneal saved at step 28 with Every 7, and a 3-lane portfolio saved at
// barrier 20 with ExchangeEvery 10 (it still carries the retired
// "portfolio" flag). A service keeps checkpoints across restarts, so an
// in-flight job's checkpoint must survive an upgrade and resume to the
// uninterrupted result.
func TestCheckpointFormatCompatibility(t *testing.T) {
	c := testCircuit(t)
	read := func(name string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	t.Run("single-lane", func(t *testing.T) {
		opt := testOptions(Anneal)
		base, err := Run(context.Background(), c, opt, yield.NewNoiseCache(), nil)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, base, resumeFrom(t, opt, read("checkpoint-anneal-unit28.json")))
	})

	t.Run("portfolio", func(t *testing.T) {
		opt := portfolioOptions()
		pf := PortfolioOptions{Lanes: 3, ExchangeEvery: 10}
		base, err := RunPortfolio(context.Background(), c, opt, pf, yield.NewNoiseCache(), nil)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := DecodeCheckpoint(read("checkpoint-portfolio3-barrier20.json"))
		if err != nil {
			t.Fatal(err)
		}
		opt.Checkpoint = &CheckpointOptions{Resume: cp}
		resumed, err := RunPortfolio(context.Background(), c, opt, pf, yield.NewNoiseCache(), nil)
		if err != nil {
			t.Fatal(err)
		}
		portfolioResultsEqual(t, base, resumed)
	})
}

// TestCheckpointSavesOnlyWhileLanesHaveWork: once every lane has
// converged, later barriers would only save copies of the same state,
// so the driver stops saving; every checkpoint it does save still has a
// lane with work left, and resuming from it reproduces the run.
func TestCheckpointSavesOnlyWhileLanesHaveWork(t *testing.T) {
	c := testCircuit(t)
	opt := testOptions(Beam) // its budget runs out before Depth 6
	pf := PortfolioOptions{Lanes: 1, ExchangeEvery: 1}
	var saved []*Checkpoint
	o := opt
	o.Checkpoint = &CheckpointOptions{Save: func(cp *Checkpoint) { saved = append(saved, cp) }}
	base, err := RunPortfolio(context.Background(), c, o, pf, yield.NewNoiseCache(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) == 0 || len(saved) >= opt.Depth-1 {
		t.Fatalf("%d checkpoints over %d barriers before the end, want some but not all", len(saved), opt.Depth-1)
	}
	for _, cp := range saved {
		if cp.Lanes[0].Done {
			t.Errorf("checkpoint at barrier %d saved after every lane converged", cp.Unit)
		}
		r := opt
		r.Checkpoint = &CheckpointOptions{Resume: cp}
		resumed, err := RunPortfolio(context.Background(), c, r, pf, yield.NewNoiseCache(), nil)
		if err != nil {
			t.Fatal(err)
		}
		portfolioResultsEqual(t, base, resumed)
	}
}
