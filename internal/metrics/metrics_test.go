package metrics

import (
	"errors"
	"fmt"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"qproc/internal/faultinject"
)

var base = time.Unix(1_700_000_000, 0).UTC()

func openStore(t *testing.T, ret Retention) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, ret)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, dir
}

func appendN(t *testing.T, s *Store, series string, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		p := Point{T: base.Add(time.Duration(i) * 100 * time.Millisecond), Step: int64(i), V: float64(i)}
		if err := s.Append(series, p); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func TestAppendTailRoundTrip(t *testing.T) {
	s, _ := openStore(t, Retention{ChunkPoints: 8})
	appendN(t, s, "job:abc/yield", 20)
	pts, err := s.Tail("job:abc/yield", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 20 {
		t.Fatalf("read %d points, want 20", len(pts))
	}
	for i, p := range pts {
		want := Point{T: base.Add(time.Duration(i+1) * 100 * time.Millisecond), Step: int64(i + 1), V: float64(i + 1)}
		if !p.T.Equal(want.T) || p.Step != want.Step || p.V != want.V {
			t.Fatalf("point %d: %+v, want %+v", i, p, want)
		}
	}
	tail, err := s.Tail("job:abc/yield", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 3 || tail[0].Step != 18 || tail[2].Step != 20 {
		t.Fatalf("tail(3) = %+v", tail)
	}
}

func TestReopenKeepsPoints(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Retention{ChunkPoints: 8})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, "job:abc/yield", 13) // one sealed chunk + a partial active one
	s.Close()

	s2, err := Open(dir, Retention{ChunkPoints: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	pts, err := s2.Tail("job:abc/yield", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 13 {
		t.Fatalf("reopened with %d points, want 13", len(pts))
	}
	// Appends continue on the surviving active chunk.
	if err := s2.Append("job:abc/yield", Point{T: base.Add(time.Hour), Step: 14, V: 14}); err != nil {
		t.Fatal(err)
	}
	pts, _ = s2.Tail("job:abc/yield", 0)
	if len(pts) != 14 || pts[13].Step != 14 {
		t.Fatalf("after reopen append: %d points, last %+v", len(pts), pts[len(pts)-1])
	}
}

// TestTornTailTruncated: a crash mid-append leaves a partial point at
// the active chunk's tail; open truncates it away and the intact points
// survive.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Retention{ChunkPoints: 8})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, "job:abc/yield", 5)
	s.Close()

	var chunkPath string
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".bin" {
			chunkPath = path
		}
		return nil
	})
	if chunkPath == "" {
		t.Fatal("no chunk file written")
	}
	f, err := os.OpenFile(chunkPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{1, 2, 3, 4, 5}) // a torn partial point
	f.Close()

	s2, err := Open(dir, Retention{ChunkPoints: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	pts, err := s2.Tail("job:abc/yield", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("restored %d points after torn tail, want 5", len(pts))
	}
	if err := s2.Append("job:abc/yield", Point{T: base, Step: 6, V: 6}); err != nil {
		t.Fatal(err)
	}
	pts, _ = s2.Tail("job:abc/yield", 0)
	if len(pts) != 6 || pts[5].V != 6 {
		t.Fatalf("append after torn-tail recovery: %+v", pts)
	}
}

// diskBytes sums the store directory's file sizes — the soak test's
// ground truth, independent of the store's own accounting.
func diskBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return total
}

// TestSoakRetentionBounded is the bounded-server acceptance test:
// appending far past the byte bound keeps on-disk bytes ≤ the bound at
// every step (checked against the filesystem, not the store's own
// counters), evictions happen, and the surviving window still queries.
func TestSoakRetentionBounded(t *testing.T) {
	const limit = 8 << 10 // 8 KiB ≈ 5 chunks of 64 points
	s, dir := openStore(t, Retention{MaxBytes: limit, ChunkPoints: 64})
	for i := 1; i <= 3000; i++ {
		p := Point{T: base.Add(time.Duration(i) * time.Second), Step: int64(i), V: float64(i % 97)}
		if err := s.Append("job:soak/evals", p); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if got := diskBytes(t, dir); got > limit {
			t.Fatalf("after %d appends: %d bytes on disk > limit %d", i, got, limit)
		}
	}
	st := s.Stats()
	if st.EvictedChunks == 0 || st.EvictedBytes == 0 {
		t.Fatalf("soak evicted nothing: %+v", st)
	}
	if st.Appends != 3000 || st.AppendErrors != 0 {
		t.Fatalf("counters %+v", st)
	}
	// The newest points survive and aggregate.
	aggs, err := s.Query("job:soak/evals", Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != 1 || aggs[0].Count == 0 || aggs[0].Last != float64(3000%97) {
		t.Fatalf("post-soak query %+v", aggs)
	}
	// Reopen under the same policy: still bounded, still queryable.
	s.Close()
	s2, err := Open(dir, Retention{MaxBytes: limit, ChunkPoints: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := diskBytes(t, dir); got > limit {
		t.Fatalf("reopened store %d bytes > limit %d", got, limit)
	}
	aggs2, err := s2.Query("job:soak/evals", Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs2) != 1 || aggs2[0].Last != aggs[0].Last {
		t.Fatalf("reopened query %+v, want %+v", aggs2, aggs)
	}
}

// TestAgeRetention: chunks whose newest point predates MaxAge are
// evicted on open.
func TestAgeRetention(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Retention{ChunkPoints: 4})
	if err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * time.Hour)
	for i := 0; i < 8; i++ { // two sealed-size chunks of old points
		if err := s.Append("bench:old", Point{T: old, Step: int64(i), V: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append("bench:old", Point{T: time.Now(), Step: 9, V: 2}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(dir, Retention{ChunkPoints: 4, MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	pts, err := s2.Tail("bench:old", 0)
	if err != nil {
		t.Fatal(err)
	}
	// The two chunks of old points are gone; the chunk holding the
	// fresh point is inside the age bound and survives.
	if len(pts) != 1 || pts[0].V != 2 {
		t.Fatalf("after age eviction: %+v", pts)
	}
}

// TestGoldenWindowedAggregation pins the documented aggregation results
// over a recorded anneal-style run: 20 steps, 100 ms apart, yield
// 0.25·step (exact in binary, so equality is exact and deterministic).
//
// Step windows of 5 give buckets [1,5] [6,10] [11,15] [16,20]:
//
//	start_step  count  min   max   mean  last
//	         1      5  0.25  1.25  0.75  1.25
//	         6      5  1.50  2.50  2.00  2.50
//	        11      5  2.75  3.75  3.25  3.75
//	        16      5  4.00  5.00  4.50  5.00
//
// Wall windows of 500 ms from the first point give the same buckets by
// time; a whole-range query gives one bucket with count 20, min 0.25,
// max 5, mean 2.625, last 5.
func TestGoldenWindowedAggregation(t *testing.T) {
	s, _ := openStore(t, Retention{ChunkPoints: 8})
	for i := 1; i <= 20; i++ {
		p := Point{T: base.Add(time.Duration(i) * 100 * time.Millisecond), Step: int64(i), V: 0.25 * float64(i)}
		if err := s.Append("job:anneal/yield", p); err != nil {
			t.Fatal(err)
		}
	}

	wantBuckets := []Agg{
		{StartStep: 1, Count: 5, Min: 0.25, Max: 1.25, Mean: 0.75, Last: 1.25},
		{StartStep: 6, Count: 5, Min: 1.50, Max: 2.50, Mean: 2.00, Last: 2.50},
		{StartStep: 11, Count: 5, Min: 2.75, Max: 3.75, Mean: 3.25, Last: 3.75},
		{StartStep: 16, Count: 5, Min: 4.00, Max: 5.00, Mean: 4.50, Last: 5.00},
	}
	got, err := s.Query("job:anneal/yield", Query{StepWindow: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(wantBuckets) {
		t.Fatalf("step windows: %d buckets, want %d", len(got), len(wantBuckets))
	}
	for i, w := range wantBuckets {
		g := got[i]
		if g.StartStep != w.StartStep || g.Count != w.Count || g.Min != w.Min ||
			g.Max != w.Max || g.Mean != w.Mean || g.Last != w.Last {
			t.Fatalf("step bucket %d: %+v, want %+v", i, g, w)
		}
	}

	// Wall-clock windows aligned to From reproduce the same buckets.
	from := base.Add(100 * time.Millisecond)
	got, err = s.Query("job:anneal/yield", Query{From: from, Window: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("wall windows: %d buckets, want 4", len(got))
	}
	for i, w := range wantBuckets {
		g := got[i]
		wantStart := from.Add(time.Duration(i) * 500 * time.Millisecond)
		if !g.Start.Equal(wantStart) || g.Count != w.Count || g.Min != w.Min ||
			g.Max != w.Max || g.Mean != w.Mean || g.Last != w.Last {
			t.Fatalf("wall bucket %d: %+v, want %+v at %v", i, g, w, wantStart)
		}
	}

	// Whole-range single bucket.
	got, err = s.Query("job:anneal/yield", Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("whole range: %d buckets", len(got))
	}
	g := got[0]
	if g.Count != 20 || g.Min != 0.25 || g.Max != 5 || g.Mean != 2.625 || g.Last != 5 {
		t.Fatalf("whole-range bucket %+v", g)
	}

	// A From/To slice selects only the covered points.
	got, err = s.Query("job:anneal/yield", Query{
		From: base.Add(600 * time.Millisecond), To: base.Add(1000 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Count != 5 || got[0].Min != 1.5 || got[0].Max != 2.5 {
		t.Fatalf("sliced bucket %+v", got)
	}

	// Unknown series: nil, not an error.
	if aggs, err := s.Query("job:nope/yield", Query{}); err != nil || aggs != nil {
		t.Fatalf("missing series: %v, %v", aggs, err)
	}
}

func TestSeriesNamesPrefix(t *testing.T) {
	s, _ := openStore(t, Retention{})
	for _, name := range []string{"job:a/yield", "job:a/evals", "job:b/yield", "bench:BenchmarkSweep"} {
		if err := s.Append(name, Point{T: base, V: 1}); err != nil {
			t.Fatal(err)
		}
	}
	got := s.SeriesNames("job:a/")
	if len(got) != 2 || got[0] != "job:a/evals" || got[1] != "job:a/yield" {
		t.Fatalf("prefix listing %v", got)
	}
	if all := s.SeriesNames(""); len(all) != 4 {
		t.Fatalf("full listing %v", all)
	}
}

// TestChaosMetricsAppendFault: the metrics.append faultinject site
// surfaces injected errors (counted, wrapped) and the store keeps
// working once the plan's budget is spent.
func TestChaosMetricsAppendFault(t *testing.T) {
	s, _ := openStore(t, Retention{})
	plan, err := faultinject.Parse("metrics.append:error:times=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(plan)
	defer faultinject.Disable()
	if err := s.Append("job:x/yield", Point{T: base, V: 1}); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("append under fault: %v", err)
	}
	if err := s.Append("job:x/yield", Point{T: base, V: 2}); err != nil {
		t.Fatalf("append after fault budget: %v", err)
	}
	st := s.Stats()
	if st.Appends != 1 || st.AppendErrors != 1 {
		t.Fatalf("fault accounting %+v", st)
	}
}

// jobMetrics are the series a search job records, one point each per
// step.
var jobMetrics = [...]string{"yield", "evals", "expected"}

// appendJobPoint makes the i-th append of a run of search jobs the way
// the server records their progress: each job writes one point to each
// of its series per step, interleaved step by step, for steps steps.
func appendJobPoint(s *Store, i, steps int) error {
	perJob := len(jobMetrics) * steps
	job, step := i/perJob, i%perJob/len(jobMetrics)+1
	name := fmt.Sprintf("job:%05d/%s", job, jobMetrics[i%len(jobMetrics)])
	return s.Append(name, Point{T: base.Add(time.Duration(i) * time.Millisecond), Step: int64(step), V: float64(step)})
}

// TestPerJobTrafficBytesBounded: many short per-job series, none ever
// filling a chunk, stay within the byte bound on disk after every job.
// Retention evicts whole idle series, their directories with them, and
// the survivors reopen and query.
func TestPerJobTrafficBytesBounded(t *testing.T) {
	const (
		jobs    = 300
		steps   = 120
		limit   = 64 << 10
		jobSize = len(jobMetrics) * (chunkHeader + steps*pointBytes)
	)
	s, dir := openStore(t, Retention{MaxBytes: limit})
	for i := 0; i < jobs*len(jobMetrics)*steps; i++ {
		if err := appendJobPoint(s, i, steps); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if (i+1)%(len(jobMetrics)*steps) != 0 {
			continue
		}
		job := (i + 1) / (len(jobMetrics) * steps)
		if got := diskBytes(t, dir); got > limit {
			t.Fatalf("after job %d: %d bytes on disk > limit %d", job, got, limit)
		}
		st := s.Stats()
		if job*jobSize > limit && st.EvictedChunks == 0 {
			t.Fatalf("after job %d: %d job bytes appended, nothing evicted", job, job*jobSize)
		}
		// Every finished job's series hold one whole chunk each, so the
		// bound keeps at most limit/jobSize jobs plus a partly evicted one.
		if max := len(jobMetrics) * (limit/jobSize + 1); st.Series > max {
			t.Fatalf("after job %d: %d series indexed, want <= %d", job, st.Series, max)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != st.Series {
			t.Fatalf("after job %d: %d series directories for %d series", job, len(entries), st.Series)
		}
	}
	names := s.SeriesNames("")
	s.Close()

	s2, err := Open(dir, Retention{MaxBytes: limit})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.SeriesNames(""); !slices.Equal(got, names) {
		t.Fatalf("reopened series %v, want %v", got, names)
	}
	last := fmt.Sprintf("job:%05d/yield", jobs-1)
	if !slices.Contains(names, last) {
		t.Fatalf("newest job's series %s evicted: %v", last, names)
	}
	aggs, err := s2.Query(last, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != 1 || aggs[0].Count != steps || aggs[0].Last != steps {
		t.Fatalf("reopened query of %s: %+v", last, aggs)
	}
}

// openFilesUnder counts this process's open files under dir, read from
// /proc/self/fd; the test skips where /proc is absent.
func openFilesUnder(t *testing.T, dir string) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	n := 0
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) {
			n++
		}
	}
	return n
}

// TestOneAppendHandle: however many series take appends, interleaved,
// rolling chunks and losing them to retention, the store holds at most
// one file open, and none after Close.
func TestOneAppendHandle(t *testing.T) {
	const steps = 40
	s, dir := openStore(t, Retention{MaxBytes: 16 << 10, ChunkPoints: 16})
	dir, err := filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20*len(jobMetrics)*steps; i++ {
		if err := appendJobPoint(s, i, steps); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if n := openFilesUnder(t, dir); n > 1 {
			t.Fatalf("after append %d: %d files open under the store", i, n)
		}
	}
	if st := s.Stats(); st.EvictedChunks == 0 {
		t.Fatalf("nothing evicted: %+v", st)
	}
	s.Close()
	if n := openFilesUnder(t, dir); n != 0 {
		t.Fatalf("after Close: %d files open under the store", n)
	}
}

// TestFailedChunkCreate: when a chunk cannot be created (a directory
// sits on its path), the append fails, no series without a chunk enters
// the index, a full series keeps its points, and other series still take
// appends.
func TestFailedChunkCreate(t *testing.T) {
	s, dir := openStore(t, Retention{ChunkPoints: 4})
	block := func(series string, seq int) {
		t.Helper()
		path := filepath.Join(dir, url.PathEscape(series), fmt.Sprintf("chunk-%06d.bin", seq))
		if err := os.MkdirAll(path, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	block("job:new/yield", 0)
	if err := s.Append("job:new/yield", Point{T: base, Step: 1, V: 1}); err == nil {
		t.Fatal("append onto a blocked first chunk succeeded")
	}
	appendN(t, s, "job:full/yield", 4)
	block("job:full/yield", 1)
	if err := s.Append("job:full/yield", Point{T: base, Step: 5, V: 5}); err == nil {
		t.Fatal("append onto a blocked next chunk succeeded")
	}
	if got := s.SeriesNames(""); !slices.Equal(got, []string{"job:full/yield"}) {
		t.Fatalf("series after failed creates: %v", got)
	}
	if st := s.Stats(); st.Series != 1 || st.Chunks != 1 || st.Points != 4 || st.AppendErrors != 2 {
		t.Fatalf("stats after failed creates: %+v", st)
	}
	appendN(t, s, "job:other/yield", 6)
	for name, want := range map[string]int{"job:full/yield": 4, "job:other/yield": 6} {
		if pts, err := s.Tail(name, 0); err != nil || len(pts) != want {
			t.Fatalf("%s: %d points (%v), want %d", name, len(pts), err, want)
		}
	}
}

// TestConcurrentAppends: jobs appending from their own goroutines share
// the one handle and the running byte count; every append lands, the
// bound holds on disk, and each surviving series keeps its step order.
func TestConcurrentAppends(t *testing.T) {
	const (
		jobs  = 4
		steps = 100
		limit = 8 << 10
	)
	s, dir := openStore(t, Retention{MaxBytes: limit, ChunkPoints: 16})
	var wg sync.WaitGroup
	for job := 0; job < jobs; job++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < len(jobMetrics)*steps; i++ {
				if err := appendJobPoint(s, job*len(jobMetrics)*steps+i, steps); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Appends != int64(jobs*len(jobMetrics)*steps) || st.AppendErrors != 0 {
		t.Fatalf("counters %+v", st)
	}
	if got := diskBytes(t, dir); got > limit || got != st.Bytes {
		t.Fatalf("%d bytes on disk, store counts %d, limit %d", got, st.Bytes, limit)
	}
	for _, name := range s.SeriesNames("") {
		pts, err := s.Tail(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].Step != pts[i-1].Step+1 {
				t.Fatalf("%s: step %d follows %d", name, pts[i].Step, pts[i-1].Step)
			}
		}
	}
}
