package workpool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qproc/internal/faultinject"
)

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	p := New(4)
	for _, n := range []int{0, 1, 7, 100, 1000} {
		counts := make([]atomic.Int32, n)
		p.ForEach(n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, got)
			}
		}
	}
}

func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	ran := make([]bool, 5)
	p.ForEach(5, func(i int) { ran[i] = true })
	for i, ok := range ran {
		if !ok {
			t.Fatalf("index %d skipped", i)
		}
	}
}

// TestHelperBudgetShared checks the pool bound is global: two concurrent
// ForEach calls never hold more helpers than the pool size between them.
func TestHelperBudgetShared(t *testing.T) {
	const size = 3
	p := New(size)
	var active, peak atomic.Int32
	body := func(int) {
		if a := active.Add(1); a > peak.Load() {
			peak.Store(a)
		}
		for i := 0; i < 1000; i++ {
			_ = i * i
		}
		active.Add(-1)
	}
	var wg sync.WaitGroup
	const callers = 4
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				p.ForEach(64, body)
			}
		}()
	}
	wg.Wait()
	// Helpers ≤ size, plus each caller participates in its own work.
	if got := peak.Load(); got > size+callers {
		t.Fatalf("peak concurrency %d exceeds size %d + callers %d", got, size, callers)
	}
	if p.InUse() != 0 {
		t.Fatalf("%d helpers still marked in use after completion", p.InUse())
	}
}

// TestCallerWaitsWhenEveryIndexHasAHelper: with budget for all n
// indices, n helpers run them and the caller only waits, so all n
// bodies hold a helper token at once. A caller that took an index
// itself would leave one token unused.
func TestCallerWaitsWhenEveryIndexHasAHelper(t *testing.T) {
	const n = 4
	p := New(n)
	var started, read sync.WaitGroup
	started.Add(n)
	read.Add(n)
	inUse := make([]int, n)
	p.ForEach(n, func(i int) {
		started.Done()
		started.Wait()
		inUse[i] = p.InUse()
		read.Done()
		read.Wait() // no helper releases its token before every body has looked
	})
	for i, got := range inUse {
		if got != n {
			t.Fatalf("index %d saw %d helpers in use, want %d", i, got, n)
		}
	}
}

// TestNestedForEachDoesNotDeadlock exercises the engine's real shape:
// an outer design-level fan-out whose work items themselves fan out
// trial-level on the same pool, at a size small enough that inner calls
// find the budget exhausted.
func TestNestedForEachDoesNotDeadlock(t *testing.T) {
	p := New(2)
	var total atomic.Int64
	p.ForEach(8, func(int) {
		p.ForEach(16, func(int) { total.Add(1) })
	})
	if got := total.Load(); got != 8*16 {
		t.Fatalf("nested run executed %d inner bodies, want %d", got, 8*16)
	}
}

// TestForEachCtxUncancelledMatchesForEach: with a live context every
// index runs exactly once and nil comes back — the determinism contract
// is untouched on the uncancelled path.
func TestForEachCtxUncancelledMatchesForEach(t *testing.T) {
	p := New(4)
	for _, n := range []int{0, 1, 7, 100} {
		counts := make([]atomic.Int32, n)
		if err := p.ForEachCtx(context.Background(), n, func(i int) { counts[i].Add(1) }); err != nil {
			t.Fatalf("n=%d: err %v", n, err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, got)
			}
		}
	}
}

// TestForEachCtxStopsOnCancel: once the context is cancelled mid-run,
// no further index is dispatched and the call reports context.Canceled.
func TestForEachCtxStopsOnCancel(t *testing.T) {
	p := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	const n = 10000
	err := p.ForEachCtx(ctx, n, func(i int) {
		if ran.Add(1) == 8 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got >= n {
		t.Fatalf("all %d indices ran despite cancellation", n)
	}
}

// TestForEachCtxPreCancelled: a context cancelled before the call runs
// nothing (workers check before their first index).
func TestForEachCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	for _, p := range []*Pool{nil, New(4)} {
		ran.Store(0)
		if err := p.ForEachCtx(ctx, 64, func(int) { ran.Add(1) }); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if got := ran.Load(); got != 0 {
			t.Fatalf("%d indices ran under a pre-cancelled context", got)
		}
	}
}

// TestPanicInHelperSurfacesToCaller: a panic inside fn re-surfaces on
// the calling goroutine as a *PanicError with the original value and a
// stack, after all in-flight work drains — the pool never loses a
// goroutine and the semaphore is fully released.
func TestPanicInHelperSurfacesToCaller(t *testing.T) {
	p := New(4)
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		p.ForEach(64, func(i int) {
			if i == 7 {
				panic("boom at 7")
			}
		})
	}()
	pe, ok := recovered.(*PanicError)
	if !ok {
		t.Fatalf("recovered %T (%v), want *PanicError", recovered, recovered)
	}
	if pe.Value != "boom at 7" {
		t.Fatalf("PanicError.Value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError carries no stack")
	}
	if p.InUse() != 0 {
		t.Fatalf("%d helpers still marked in use after the panic", p.InUse())
	}
	// The pool still works afterwards.
	var ran atomic.Int64
	p.ForEach(32, func(int) { ran.Add(1) })
	if ran.Load() != 32 {
		t.Fatalf("pool ran %d/32 bodies after a panic", ran.Load())
	}
}

// TestPanicStopsDispatch: after the first panic no further index is
// handed out, so a poisoned batch fails fast instead of running every
// remaining body. Once the poison has fired, every other body pauses
// before returning, so the panicking runner records the abort before its
// peers ask for their next index even when it is descheduled under load;
// without the pause two peers can drain all n trivial bodies in the few
// microseconds between the panic and the abort.
func TestPanicStopsDispatch(t *testing.T) {
	p := New(2)
	var ran atomic.Int64
	const n = 100000
	poisoned := make(chan struct{})
	func() {
		defer func() { _ = recover() }()
		p.ForEach(n, func(i int) {
			if ran.Add(1) == 5 {
				close(poisoned)
				panic("poison")
			}
			select {
			case <-poisoned:
				time.Sleep(100 * time.Microsecond)
			default:
			}
		})
	}()
	if got := ran.Load(); got >= n {
		t.Fatalf("all %d indices ran despite a panic", n)
	}
}

func TestDeterministicByIndex(t *testing.T) {
	p := New(8)
	out := make([]int, 512)
	p.ForEach(len(out), func(i int) { out[i] = i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// TestChaosDispatchFaultDegradesInline: an injected workpool.dispatch
// error makes ForEach run everything on the caller — every index still
// runs exactly once, same results, no helpers used.
func TestChaosDispatchFaultDegradesInline(t *testing.T) {
	plan, err := faultinject.Parse("workpool.dispatch:error", 1)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(plan)
	defer faultinject.Disable()

	p := New(8)
	out := make([]int, 256)
	var helpers atomic.Int32
	p.ForEach(len(out), func(i int) {
		out[i] = i * i
		if u := int32(p.InUse()); u > helpers.Load() {
			helpers.Store(u)
		}
	})
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if helpers.Load() != 0 {
		t.Fatalf("%d helpers spawned despite a dispatch fault", helpers.Load())
	}
}
