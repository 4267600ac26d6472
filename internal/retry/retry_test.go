package retry

import (
	"testing"
	"time"

	"qproc/internal/runstore"
)

func TestZeroPolicyDisabled(t *testing.T) {
	var p Policy
	if p.Enabled() {
		t.Fatal("zero policy reports enabled")
	}
	if p.Allows(runstore.StatusFailed, 1) || p.Allows(runstore.StatusInterrupted, 0) {
		t.Fatal("zero policy allows retries")
	}
	if got := p.RetryAfter(); got != 5 {
		t.Fatalf("RetryAfter = %d, want legacy 5", got)
	}
}

func TestAllowsBudgets(t *testing.T) {
	p := Default()
	cases := []struct {
		status   string
		attempts int
		want     bool
	}{
		{runstore.StatusFailed, 0, true},
		{runstore.StatusFailed, 1, true},  // first failure → one retry
		{runstore.StatusFailed, 2, false}, // budget of 1 exhausted
		{runstore.StatusInterrupted, 1, true},
		{runstore.StatusInterrupted, 2, true},
		{runstore.StatusInterrupted, 3, false},
		{"done", 0, false},
		{"canceled", 0, false},
	}
	for _, c := range cases {
		if got := p.Allows(c.status, c.attempts); got != c.want {
			t.Errorf("Allows(%q, %d) = %v, want %v", c.status, c.attempts, got, c.want)
		}
	}
}

func TestDelayExponentialAndCapped(t *testing.T) {
	p := Policy{Failed: 5, Base: 100 * time.Millisecond, Cap: 400 * time.Millisecond}
	if d := p.Delay("job", 1); d != 100*time.Millisecond {
		t.Fatalf("attempt 1 delay = %v, want 100ms", d)
	}
	if d := p.Delay("job", 2); d != 200*time.Millisecond {
		t.Fatalf("attempt 2 delay = %v, want 200ms", d)
	}
	if d := p.Delay("job", 10); d != 400*time.Millisecond {
		t.Fatalf("attempt 10 delay = %v, want capped 400ms", d)
	}
	if d := p.Delay("job", 0); d != 100*time.Millisecond {
		t.Fatalf("attempt 0 clamps to 1, delay = %v", d)
	}
}

func TestDelayJitterDeterministic(t *testing.T) {
	p := Default()
	p.Seed = 11
	a, b := p.Delay("jobA", 1), p.Delay("jobA", 1)
	if a != b {
		t.Fatalf("same (seed, id, attempt) gave %v and %v", a, b)
	}
	if a < p.Base {
		t.Fatalf("jittered delay %v below base %v", a, p.Base)
	}
	if max := time.Duration(float64(p.Base) * (1 + p.JitterFrac)); a > max {
		t.Fatalf("jittered delay %v above base+jitter bound %v", a, max)
	}
	if c := p.Delay("jobB", 1); c == a {
		t.Logf("note: jobA and jobB jitter collided (possible but unlikely)")
	}
}

func TestRetryAfter(t *testing.T) {
	p := Default()
	if got := p.RetryAfter(); got != 1 {
		t.Fatalf("RetryAfter = %d, want ceil(500ms)=1", got)
	}
	p.Base = 2500 * time.Millisecond
	if got := p.RetryAfter(); got != 3 {
		t.Fatalf("RetryAfter = %d, want ceil(2.5s)=3", got)
	}
}
