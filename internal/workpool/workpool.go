// Package workpool provides the one fan-out primitive of the evaluation
// engine: sweep groups, series generation and design mapping in the
// experiments runner, proposal construction in the search strategies and
// trial-level chunking in the yield simulator all run through
// Pool.ForEachCtx, so a panic in any of them reaches the caller as one
// *PanicError. A qserve process shares one Pool across all of them, which
// caps the helper goroutines globally (instead of jobs × levels × workers
// competing for the same cores): whoever asks for parallelism gets it
// while budget remains and degrades to inline execution when it does
// not.
//
// The scheduling discipline preserves the engine's determinism contract:
// ForEach runs fn(0..n-1) exactly once each, callers write results by
// index, and no result depends on which goroutine computed it — so runs
// are bit-identical whether the pool is saturated, idle, or absent.
package workpool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"qproc/internal/faultinject"
)

// PanicError carries a panic that happened inside a helper goroutine
// across to the ForEachCtx caller: the helper recovers (so the shared
// pool never loses a goroutine to someone else's bug), records the
// value and stack, and the caller re-panics with this after all
// in-flight work has drained. A supervisor above the call (e.g. the
// server's per-job recover) can then fail just the offending job with
// the original stack while the process keeps serving.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Pool is a shared budget of helper goroutines. The zero value is not
// usable; create with New. A nil *Pool is valid everywhere and runs
// every index inline on the caller.
type Pool struct {
	// sem holds one token per helper the pool may run concurrently.
	sem chan struct{}
}

// New returns a pool allowing up to size concurrent helper goroutines
// across all ForEach calls; size <= 0 means GOMAXPROCS. The calling
// goroutine of every ForEach runs whatever indices the budget leaves
// without a helper, so total concurrency is bounded by size plus the
// number of concurrent callers — and a ForEach can never deadlock
// waiting for tokens, even when called from inside another ForEach's
// helper.
func New(size int) *Pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, size)}
}

// Size returns the helper budget.
func (p *Pool) Size() int { return cap(p.sem) }

// InUse returns the helpers currently running, for stats endpoints.
func (p *Pool) InUse() int { return len(p.sem) }

// ForEach runs fn(0), ..., fn(n-1), each exactly once. Indices are
// handed out atomically to however many helper goroutines the shared
// budget grants at this instant (never more than n; possibly zero, in
// which case the caller runs everything inline) and to the caller,
// unless every index got its own helper, in which case the caller only
// waits. fn must write its outcome by index so the result is
// independent of scheduling. A nil pool runs everything inline.
func (p *Pool) ForEach(n int, fn func(int)) {
	p.ForEachCtx(context.Background(), n, fn)
}

// ForEachCtx is ForEach under a cancellation signal: once ctx is
// cancelled, no further index is handed out — in-flight fn calls run to
// completion, the remaining indices are never dispatched, and the call
// returns ctx.Err(). A nil or never-cancelled ctx makes ForEachCtx
// behave exactly like ForEach (every index runs, nil is returned), so
// the determinism contract is untouched on the uncancelled path.
// Callers that may be cancelled must treat a non-nil return as "results
// are incomplete" and abort rather than read their result slots.
func (p *Pool) ForEachCtx(ctx context.Context, n int, fn func(int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return ctx.Err()
	}
	done := ctx.Done()
	canceled := func() bool {
		if done == nil {
			return false
		}
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	if p == nil || n == 1 {
		for i := 0; i < n; i++ {
			if canceled() {
				break
			}
			fn(i)
		}
		return ctx.Err()
	}
	// A panic inside fn must not kill a pooled goroutine (the pool is
	// shared by unrelated jobs) nor deadlock the caller. Each runner
	// recovers, the first panic is captured with its stack, dispatch
	// stops, and the caller re-panics with a *PanicError once all
	// in-flight work has drained. The abort is raised before the stack is
	// captured so peers stop taking indices as early as possible.
	var (
		next      atomic.Int64
		aborted   atomic.Bool
		panicOnce sync.Once
		pe        *PanicError
	)
	safe := func(i int) {
		defer func() {
			if v := recover(); v != nil {
				aborted.Store(true)
				panicOnce.Do(func() {
					pe = &PanicError{Value: v, Stack: debug.Stack()}
				})
			}
		}()
		fn(i)
	}
	work := func() {
		for {
			if canceled() || aborted.Load() {
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			safe(i)
		}
	}
	var wg sync.WaitGroup
	helpers := 0
	// An injected dispatch fault degrades to inline execution on the
	// caller — the scheduling discipline makes that indistinguishable
	// from a saturated pool, so results are identical either way.
	if faultinject.Check(faultinject.SiteWorkpoolDispatch) == nil {
		for helpers < n {
			select {
			case p.sem <- struct{}{}:
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-p.sem }()
					work()
				}()
				helpers++
				continue
			default:
			}
			break // budget exhausted right now: the caller picks up the rest
		}
	}
	// The newest helper waits in this processor's run-next slot, which
	// idle processors steal from only after a back-off that timer slack
	// stretches to tens of microseconds: as long as a small trial chunk.
	// So the caller joins in only when the budget left indices without a
	// helper; otherwise it parks, and the newest helper starts here.
	if helpers < n {
		work()
	}
	wg.Wait()
	if pe != nil {
		panic(pe)
	}
	return ctx.Err()
}
