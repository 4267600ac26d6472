package memo

import (
	"sync"
	"sync/atomic"
	"testing"
)

// sized returns a build function yielding v with footprint size and
// counting its calls in n.
func sized(n *atomic.Int64, v int, size int64) func() (int, int64) {
	return func() (int, int64) {
		n.Add(1)
		return v, size
	}
}

// TestZeroValueSingleFlight: the zero Cache is usable, and concurrent
// misses on one key build it once, every caller seeing the one value.
func TestZeroValueSingleFlight(t *testing.T) {
	var c Cache[string, int]
	var builds atomic.Int64
	const callers = 16
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v := c.Get("k", sized(&builds, 42, 8)); v != 42 {
				t.Errorf("Get = %d, want 42", v)
			}
		}()
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("%d builds, want 1", builds.Load())
	}
	if hits, misses := c.Stats(); hits+misses != callers || misses != 1 {
		t.Fatalf("stats %d hits / %d misses, want %d / 1", hits, misses, callers-1)
	}
	if snap := c.Snapshot(); snap.Entries != 1 || snap.Bytes != 8 {
		t.Fatalf("len %d bytes %d, want 1 / 8", snap.Entries, snap.Bytes)
	}
}

// TestEvictsLeastRecentlyRequested: over the limit, the entry requested
// longest ago goes first, and the entry just requested is kept even
// when it alone exceeds the limit.
func TestEvictsLeastRecentlyRequested(t *testing.T) {
	var c Cache[string, int]
	var builds atomic.Int64
	c.SetLimit(20)
	c.Get("a", sized(&builds, 1, 10))
	c.Get("b", sized(&builds, 2, 10))
	c.Get("a", sized(&builds, 1, 10)) // a is now the more recent
	c.Get("c", sized(&builds, 3, 10)) // drops b
	if snap := c.Snapshot(); snap.Entries != 2 || snap.Bytes != 20 || snap.Evictions != 1 {
		t.Fatalf("len %d bytes %d evictions %d, want 2 / 20 / 1", snap.Entries, snap.Bytes, snap.Evictions)
	}
	before := builds.Load()
	c.Get("a", sized(&builds, 1, 10))
	if builds.Load() != before {
		t.Fatal("a was evicted instead of b")
	}
	c.Get("huge", sized(&builds, 4, 100))
	if snap := c.Snapshot(); snap.Entries != 1 || snap.Bytes != 100 {
		t.Fatalf("len %d bytes %d after an oversized request, want 1 / 100", snap.Entries, snap.Bytes)
	}
	c.SetLimit(0)
	c.Purge()
	if snap := c.Snapshot(); snap.Entries != 0 || snap.Bytes != 0 || snap.Limit != 0 {
		t.Fatalf("len %d bytes %d limit %d after purge, want zeros", snap.Entries, snap.Bytes, snap.Limit)
	}
}

// blocked starts Get(k) on another goroutine with a build that waits
// for release, and returns once that build is running.
func blocked(c *Cache[string, int], k string, v int, size int64) (release func(), result <-chan int) {
	started := make(chan struct{})
	gate := make(chan struct{})
	out := make(chan int, 1)
	go func() {
		out <- c.Get(k, func() (int, int64) {
			close(started)
			<-gate
			return v, size
		})
	}()
	<-started
	return func() { close(gate) }, out
}

// TestInFlightBuildIsNeverEvicted: a build still running holds no bytes
// and cannot be a victim; when it finishes it accounts for itself and
// evicts others instead.
func TestInFlightBuildIsNeverEvicted(t *testing.T) {
	var c Cache[string, int]
	var builds atomic.Int64
	c.SetLimit(1)
	release, result := blocked(&c, "slow", 7, 10)
	c.Get("x", sized(&builds, 1, 10)) // over the limit, but nothing else is evictable
	if snap := c.Snapshot(); snap.Entries != 2 || snap.Bytes != 10 || snap.Evictions != 0 {
		t.Fatalf("len %d bytes %d evictions %d, want 2 / 10 / 0", snap.Entries, snap.Bytes, snap.Evictions)
	}
	release()
	if v := <-result; v != 7 {
		t.Fatalf("in-flight Get = %d, want 7", v)
	}
	if snap := c.Snapshot(); snap.Entries != 1 || snap.Bytes != 10 || snap.Evictions != 1 {
		t.Fatalf("len %d bytes %d evictions %d, want 1 / 10 / 1", snap.Entries, snap.Bytes, snap.Evictions)
	}
}

// TestPurgeDuringBuildDoesNotAccount: a build that finishes after a
// Purge dropped its entry returns its value but adds no bytes, and the
// next request builds afresh.
func TestPurgeDuringBuildDoesNotAccount(t *testing.T) {
	var c Cache[string, int]
	release, result := blocked(&c, "slow", 7, 10)
	c.Purge()
	release()
	if v := <-result; v != 7 {
		t.Fatalf("in-flight Get = %d, want 7", v)
	}
	if snap := c.Snapshot(); snap.Entries != 0 || snap.Bytes != 0 {
		t.Fatalf("len %d bytes %d after a purged build, want 0 / 0", snap.Entries, snap.Bytes)
	}
	var builds atomic.Int64
	c.Get("slow", sized(&builds, 7, 10))
	if builds.Load() != 1 || c.Snapshot().Bytes != 10 {
		t.Fatalf("rebuild count %d bytes %d, want 1 / 10", builds.Load(), c.Snapshot().Bytes)
	}
}
