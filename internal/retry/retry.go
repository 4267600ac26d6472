// Package retry is the supervision policy for the job service: how many
// times a failed or interrupted job is re-run, and how long to wait
// between attempts. Backoff is capped-exponential with deterministic
// jitter — the jitter is a hash of (seed, job id, attempt), not a
// random draw, so a supervised system's retry timeline is reproducible.
package retry

import (
	"hash/fnv"
	"time"

	"qproc/internal/runstore"
)

// Policy describes per-status retry budgets and the backoff curve. The
// zero value disables retries entirely.
type Policy struct {
	// Failed is how many times a failed job is re-run (0 = never).
	Failed int
	// Interrupted is how many times an interrupted job is re-run.
	Interrupted int
	// Base is the delay before the first retry; each further retry
	// doubles it. <= 0 means no delay.
	Base time.Duration
	// Cap bounds the exponential growth. <= 0 means uncapped.
	Cap time.Duration
	// JitterFrac adds up to this fraction of the delay as deterministic
	// jitter, de-synchronising retries of different jobs.
	JitterFrac float64
	// Seed drives the jitter hash.
	Seed int64
}

// Default returns the qserve default: one retry for failures, two for
// interruptions, 500ms base doubling to a 30s cap, 20% jitter.
func Default() Policy {
	return Policy{
		Failed:      1,
		Interrupted: 2,
		Base:        500 * time.Millisecond,
		Cap:         30 * time.Second,
		JitterFrac:  0.2,
	}
}

// Enabled reports whether any status has a retry budget.
func (p Policy) Enabled() bool { return p.Failed > 0 || p.Interrupted > 0 }

func (p Policy) budget(status string) int {
	switch status {
	case runstore.StatusFailed:
		return p.Failed
	case runstore.StatusInterrupted:
		return p.Interrupted
	}
	return 0
}

// Allows reports whether a job that has already started `attempts` runs
// and landed in `status` may be run again. attempts counts runs
// started, so a budget of 1 means one retry after the first failure.
func (p Policy) Allows(status string, attempts int) bool {
	b := p.budget(status)
	return b > 0 && attempts <= b
}

// Delay returns the backoff before retry number `attempt` (1-based) of
// the given job: Base·2^(attempt-1), capped at Cap, plus deterministic
// jitter of up to JitterFrac of the capped delay.
func (p Policy) Delay(id string, attempt int) time.Duration {
	if p.Base <= 0 {
		return 0
	}
	if attempt < 1 {
		attempt = 1
	}
	d := p.Base
	for i := 1; i < attempt; i++ {
		d *= 2
		if p.Cap > 0 && d >= p.Cap {
			d = p.Cap
			break
		}
	}
	if p.Cap > 0 && d > p.Cap {
		d = p.Cap
	}
	if p.JitterFrac > 0 {
		j := time.Duration(float64(d) * p.JitterFrac * hashFrac(p.Seed, id, attempt))
		d += j
	}
	return d
}

// RetryAfter returns the whole-second hint for Retry-After headers:
// the base backoff rounded up, at least 1; 5 when retries are disabled
// (the legacy hardcoded hint).
func (p Policy) RetryAfter() int {
	if !p.Enabled() || p.Base <= 0 {
		return 5
	}
	sec := int((p.Base + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}

// hashFrac maps (seed, id, attempt) to [0,1) via FNV-1a.
func hashFrac(seed int64, id string, attempt int) float64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(uint64(seed) >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(id))
	for i := range buf {
		buf[i] = byte(uint64(attempt) >> (8 * i))
	}
	h.Write(buf[:])
	return float64(h.Sum64()>>11) / float64(1<<53)
}
