// Package faultinject is a deterministic fault-injection registry for
// chaos testing. Production code threads named sites through its hot
// paths (journal appends, store reads/writes, checkpoint persistence,
// workpool dispatch, estimator evaluations); each site costs one atomic
// nil-check when no plan is enabled. A plan — parsed from a compact
// spec string, seeded for reproducibility — decides per call whether a
// site errors, panics, or delays, so a chaos run with the same spec and
// seed injects the exact same fault sequence every time.
//
// The spec grammar is a ';'-separated list of rules:
//
//	site:action[:param=value]*
//
// where action is one of
//
//	error        return ErrInjected from the site
//	panic        panic at the site
//	delay=DUR    sleep DUR (time.ParseDuration) at the site, then proceed
//
// and the optional parameters are
//
//	p=F          fire with probability F per eligible hit (seeded, deterministic)
//	after=N      skip the first N hits of the site
//	every=K      fire on every K-th eligible hit only
//	times=N      fire at most N times, then go quiet
//
// Example: "store.get:error:times=1;journal.append:delay=5ms:every=3"
// fails the first store read and delays every third journal append.
package faultinject

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Named injection sites. Sites are compiled into production code; the
// parser rejects unknown names so a chaos spec can't silently no-op.
const (
	SiteJournalAppend     = "journal.append"
	SiteStorePut          = "store.put"
	SiteStoreGet          = "store.get"
	SiteCheckpointPut     = "checkpoint.put"
	SiteCheckpointGet     = "checkpoint.get"
	SiteWorkpoolDispatch  = "workpool.dispatch"
	SiteEstimatorEstimate = "estimator.estimate"
	SiteMetricsAppend     = "metrics.append"
)

// knownSites is the parser's allow-list.
var knownSites = map[string]bool{
	SiteJournalAppend:     true,
	SiteStorePut:          true,
	SiteStoreGet:          true,
	SiteCheckpointPut:     true,
	SiteCheckpointGet:     true,
	SiteWorkpoolDispatch:  true,
	SiteEstimatorEstimate: true,
	SiteMetricsAppend:     true,
}

// ErrInjected is the sentinel wrapped by every injected error, so
// recovery paths (and tests) can tell injected faults from real ones.
var ErrInjected = errors.New("injected fault")

type action int

const (
	actError action = iota
	actPanic
	actDelay
)

// rule is one compiled spec clause; hit/fire counters make after/every/
// times deterministic per process regardless of goroutine interleaving
// at other sites (a single site's hits are ordered by the atomic add).
type rule struct {
	act   action
	delay time.Duration
	p     float64 // fire probability per eligible hit; 1 unless p= is given
	after int64   // skip the first `after` hits
	every int64   // then fire on every k-th hit; 1 = every hit
	times int64   // at most this many fires; 0 = unlimited
	hits  atomic.Int64
	fires atomic.Int64
}

// Plan is a compiled, seeded fault schedule.
type Plan struct {
	seed  int64
	rules map[string][]*rule
	spec  string
}

// String returns the spec the plan was parsed from.
func (p *Plan) String() string { return p.spec }

// Parse compiles a spec string into a Plan. The seed drives the
// probabilistic (p=) decisions; two plans with the same spec and seed
// inject identical fault sequences.
func Parse(spec string, seed int64) (*Plan, error) {
	p := &Plan{seed: seed, rules: map[string][]*rule{}, spec: spec}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		parts := strings.Split(clause, ":")
		if len(parts) < 2 {
			return nil, fmt.Errorf("faultinject: clause %q: want site:action[:param=value]*", clause)
		}
		site := strings.TrimSpace(parts[0])
		if !knownSites[site] {
			return nil, fmt.Errorf("faultinject: unknown site %q", site)
		}
		r := &rule{p: 1, every: 1}
		act := strings.TrimSpace(parts[1])
		switch {
		case act == "error":
			r.act = actError
		case act == "panic":
			r.act = actPanic
		case strings.HasPrefix(act, "delay="):
			d, err := time.ParseDuration(strings.TrimPrefix(act, "delay="))
			if err != nil {
				return nil, fmt.Errorf("faultinject: clause %q: %w", clause, err)
			}
			if d < 0 {
				return nil, fmt.Errorf("faultinject: clause %q: negative delay %v", clause, d)
			}
			r.act, r.delay = actDelay, d
		default:
			return nil, fmt.Errorf("faultinject: clause %q: unknown action %q", clause, act)
		}
		for _, kv := range parts[2:] {
			k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, fmt.Errorf("faultinject: clause %q: bad parameter %q", clause, kv)
			}
			switch k {
			case "p":
				f, err := strconv.ParseFloat(v, 64)
				if err != nil || !(f >= 0 && f <= 1) { // NaN fails both
					return nil, fmt.Errorf("faultinject: clause %q: p=%q not in [0,1]", clause, v)
				}
				r.p = f
			case "after":
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("faultinject: clause %q: bad after=%q", clause, v)
				}
				r.after = n
			case "every":
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("faultinject: clause %q: bad every=%q", clause, v)
				}
				r.every = n
			case "times":
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("faultinject: clause %q: bad times=%q", clause, v)
				}
				r.times = n
			default:
				return nil, fmt.Errorf("faultinject: clause %q: unknown parameter %q", clause, k)
			}
		}
		p.rules[site] = append(p.rules[site], r)
	}
	return p, nil
}

// active is the process-wide plan. Production sites read it with one
// atomic load; nil means every Check is a no-op.
var active atomic.Pointer[Plan]

// Enable installs a plan process-wide. Passing nil disables injection.
func Enable(p *Plan) { active.Store(p) }

// Disable removes the active plan.
func Disable() { active.Store(nil) }

// Enabled reports whether a plan is active.
func Enabled() bool { return active.Load() != nil }

// Check consults the active plan at a named site. With no plan (the
// production state) it returns nil after a single atomic load. With a
// plan it may sleep (delay rules), panic (panic rules), or return an
// error wrapping ErrInjected (error rules).
func Check(site string) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.check(site)
}

func (p *Plan) check(site string) error {
	for _, r := range p.rules[site] {
		if err := r.check(p.seed, site); err != nil {
			return err
		}
	}
	return nil
}

func (r *rule) check(seed int64, site string) error {
	hit := r.hits.Add(1)
	if hit <= r.after {
		return nil
	}
	n := hit - r.after
	if r.every > 1 && n%r.every != 0 {
		return nil
	}
	if r.p < 1 && hashFrac(seed, site, hit) >= r.p {
		return nil
	}
	if r.times > 0 && r.fires.Add(1) > r.times {
		return nil
	}
	switch r.act {
	case actDelay:
		time.Sleep(r.delay)
		return nil
	case actPanic:
		panic(fmt.Sprintf("faultinject: injected panic at %s", site))
	default:
		return fmt.Errorf("%w at %s", ErrInjected, site)
	}
}

// hashFrac maps (seed, site, hit) to a uniform-ish value in [0,1) via
// FNV-1a, so probabilistic rules are reproducible across runs.
func hashFrac(seed int64, site string, hit int64) float64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(uint64(seed) >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(site))
	for i := range buf {
		buf[i] = byte(uint64(hit) >> (8 * i))
	}
	h.Write(buf[:])
	return float64(h.Sum64()>>11) / float64(1<<53)
}
