package experiments

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

// checkpointSearchJob is a search long enough to cross several
// checkpoint barriers under CheckpointEvery = 5 but still quick under
// the tiny Monte-Carlo budgets.
func checkpointSearchJob() SearchJob {
	return SearchJob{Spec: SearchSpec{
		Benchmark: "sym6_145",
		Strategy:  "anneal",
		Steps:     40,
		Proposals: 4,
		MaxEvals:  6,
		AuxCounts: []int{0},
	}}
}

// TestInterruptedJobResumesFromCheckpoint is the executor-level
// self-healing loop: a search interrupted mid-run leaves a checkpoint
// in the run store; re-running the same job resumes from it (reported
// via an event), completes, matches the uninterrupted outcome
// bit-identically, and cleans the checkpoint up.
func TestInterruptedJobResumesFromCheckpoint(t *testing.T) {
	opt := tinyOptions()
	opt.CheckpointEvery = 5
	job := checkpointSearchJob()

	// Uninterrupted baseline on its own store.
	base, cached, err := NewRunner(opt).RunJob(context.Background(), job, openStore(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("baseline reported cached")
	}
	var want bytes.Buffer
	if err := base.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}

	// Interrupt a second run mid-flight, after enough steps that at
	// least one barrier checkpoint has been saved.
	st := openStore(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, _, err = NewRunner(opt).RunJob(ctx, job, st, func(e Event) {
		if e.Done >= 20 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	key, err := JobKey(job, opt)
	if err != nil {
		t.Fatal(err)
	}
	if data, err := st.GetCheckpoint(key); err != nil || data == nil {
		t.Fatalf("no checkpoint left behind by the interrupted run: %v", err)
	}

	// Re-running the same job on the same store resumes and completes.
	var events []string
	out, cached, err := NewRunner(opt).RunJob(context.Background(), job, st, func(e Event) {
		if e.Message != "" {
			events = append(events, e.Message)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("resumed run reported cached")
	}
	resumed := false
	for _, m := range events {
		if strings.Contains(m, "resuming from checkpoint") {
			resumed = true
		}
	}
	if !resumed {
		t.Fatalf("no resume event emitted; events: %q", events)
	}
	var got bytes.Buffer
	if err := out.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("resumed outcome differs from uninterrupted run:\n%s\nvs\n%s", want.Bytes(), got.Bytes())
	}
	if data, err := st.GetCheckpoint(key); err != nil || data != nil {
		t.Fatalf("checkpoint not cleaned up after completion: %q, %v", data, err)
	}
}

// TestRejectedCheckpointRestartsCold: a checkpoint the engine rejects
// is discarded and the job restarts cold instead of failing, and the
// cold restart's outcome is a clean run's, byte for byte. The forged
// checkpoints, stored under the job's key, are one saved by a different
// strategy and one whose anneal lane claims more control-RNG draws than
// its steps can make (replaying 2⁶⁴−1 draws would never end).
func TestRejectedCheckpointRestartsCold(t *testing.T) {
	opt := tinyOptions()
	opt.CheckpointEvery = 5
	job := checkpointSearchJob()
	key, err := JobKey(job, opt)
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := NewRunner(opt).RunJob(context.Background(), job, openStore(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := base.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	const freqs = `{"aux":0,"freqs":[5.1,5.31,5.31,5.27,5.26,5.26,5.17]}`
	for _, tc := range []struct{ name, checkpoint, reason string }{
		{"strategy", `{"schema":1,"strategy":"beam","lanes":[{"strategy":"beam"}]}`, "strategy"},
		{"rng draws", `{"schema":1,"strategy":"anneal","unit":5,` +
			`"memo":[{"state":` + freqs + `,"yield":0.4,"objective":0.4}],` +
			`"lanes":[{"strategy":"anneal","unit":5,"evals":1,"rng_draws":18446744073709551615,` +
			`"cur":` + freqs + `,"best_key":"aux=0||5.1 5.31 5.31 5.27 5.26 5.26 5.17 "}]}`, "control draws"},
	} {
		st := openStore(t)
		if err := st.PutCheckpoint(key, []byte(tc.checkpoint)); err != nil {
			t.Fatal(err)
		}
		var rejection string
		out, _, err := NewRunner(opt).RunJob(context.Background(), job, st, func(e Event) {
			if strings.Contains(e.Message, "checkpoint rejected; restarting cold") {
				rejection = e.Err
			}
		})
		if err != nil {
			t.Fatalf("%s: job failed instead of restarting cold: %v", tc.name, err)
		}
		if !strings.Contains(rejection, tc.reason) {
			t.Fatalf("%s: rejection %q does not name %q", tc.name, rejection, tc.reason)
		}
		var got bytes.Buffer
		if err := out.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("%s: cold restart after a rejected checkpoint diverged from a clean run", tc.name)
		}
	}
}
