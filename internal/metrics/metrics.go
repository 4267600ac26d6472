// Package metrics is a chunked, append-only, on-disk time-series store
// for run metrics: per-job progress series (yield, evaluations, lane
// counters as a search advances) and bench history (per-commit ns/op
// geomeans). It is the retention-bounded event layer the paper's
// trajectory plots need — yield vs. Monte-Carlo budget, progress across
// evaluation counts — where the run store only keeps terminal outcomes.
//
// Layout under the store root, one directory per series (the series
// name path-escaped so keys like "job:<hash>/yield" are safe file
// names):
//
//	<root>/<escaped-series>/chunk-000000.bin
//	<root>/<escaped-series>/chunk-000001.bin
//	...
//
// Each chunk is a fixed-capacity binary file: an 8-byte header (magic +
// version) followed by fixed-width 24-byte points (unix-nano timestamp,
// step counter, float64 value, little-endian). The highest-numbered
// chunk of a series is active — appended in place, one point per write;
// when it reaches capacity it is sealed and a new chunk starts. Sealed
// chunks are immutable: retention (a store-wide byte bound and a
// max-age bound) deletes whole sealed chunks oldest-first, never points
// inside one, and never the active chunk — so on-disk bytes stay
// proportional to the retention policy rather than to server lifetime.
// A torn final point (the process died mid-append) is truncated away on
// open, never fatal.
//
// Series names follow the convention "job:<key>/<metric>" for per-job
// progress metrics.
package metrics

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"qproc/internal/faultinject"
)

// Point is one sample of a series: a wall-clock timestamp, a
// monotonic-ish step counter in the producer's own unit (annealing
// step, sweep cell, commit index), and a value.
type Point struct {
	T    time.Time `json:"t"`
	Step int64     `json:"step"`
	V    float64   `json:"v"`
}

const (
	chunkMagic   = "QMC1"
	chunkHeader  = 8  // magic (4) + version (uint32 LE)
	pointBytes   = 24 // t unixnano int64 | step int64 | v float64, all LE
	chunkVersion = 1

	// DefaultChunkPoints is the per-chunk point capacity when Retention
	// leaves it zero: 512 points ≈ 12 KiB per chunk, small enough that
	// whole-chunk eviction tracks a byte bound closely.
	DefaultChunkPoints = 512
)

// Retention bounds a store's disk footprint.
type Retention struct {
	// MaxBytes bounds the total on-disk size across all series; 0 means
	// unbounded. When an append pushes the total past the bound, the
	// globally oldest sealed chunks are deleted until it fits. Active
	// chunks are never deleted, so the bound is honoured whenever it is
	// at least the active chunks' worth of bytes (one chunk per live
	// series).
	MaxBytes int64
	// MaxAge evicts sealed chunks whose newest point is older than this;
	// 0 means unbounded.
	MaxAge time.Duration
	// ChunkPoints is the per-chunk point capacity; 0 means
	// DefaultChunkPoints.
	ChunkPoints int
}

// chunk is the in-memory index entry of one chunk file.
type chunk struct {
	seq   int
	path  string
	count int
	minT  int64 // unix nanos; undefined when count == 0
	maxT  int64
}

func (c *chunk) bytes() int64 { return chunkHeader + int64(c.count)*pointBytes }

// series is one named series and its chunk list, ordered by seq; the
// last entry is the active chunk (an open append handle when f != nil).
type series struct {
	name   string
	dir    string
	chunks []*chunk
	f      *os.File
}

func (s *series) active() *chunk { return s.chunks[len(s.chunks)-1] }

// Store is the chunked time-series store rooted at one directory. Safe
// for concurrent use.
type Store struct {
	mu     sync.Mutex
	root   string
	ret    Retention
	series map[string]*series

	// counters for /v1/stats
	appends       int64
	appendErrors  int64
	evictedChunks int64
	evictedBytes  int64
}

// Open creates (if needed) and loads the store at dir, truncating any
// torn tail off each series' active chunk and applying the retention
// policy once.
func Open(dir string, ret Retention) (*Store, error) {
	if ret.ChunkPoints <= 0 {
		ret.ChunkPoints = DefaultChunkPoints
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	s := &Store{root: dir, ret: ret, series: map[string]*series{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name, err := url.PathUnescape(e.Name())
		if err != nil {
			continue // foreign directory: not ours to manage
		}
		ser, err := openSeries(name, filepath.Join(dir, e.Name()), ret.ChunkPoints)
		if err != nil {
			return nil, err
		}
		if ser != nil {
			s.series[name] = ser
		}
	}
	s.enforceRetentionLocked(time.Now())
	return s, nil
}

// openSeries indexes one series directory: every chunk-*.bin file is
// sized up (a trailing partial point is truncated away) and its time
// range read from the first and last point. Returns nil when the
// directory holds no chunks.
func openSeries(name, dir string, chunkPoints int) (*series, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	ser := &series{name: name, dir: dir}
	for _, e := range entries {
		var seq int
		if _, err := fmt.Sscanf(e.Name(), "chunk-%06d.bin", &seq); err != nil {
			continue
		}
		path := filepath.Join(dir, e.Name())
		c, err := indexChunk(path, seq)
		if err != nil {
			return nil, err
		}
		if c != nil {
			ser.chunks = append(ser.chunks, c)
		}
	}
	if len(ser.chunks) == 0 {
		return nil, nil
	}
	sort.Slice(ser.chunks, func(i, j int) bool { return ser.chunks[i].seq < ser.chunks[j].seq })
	return ser, nil
}

// indexChunk validates a chunk file's header, truncates a torn tail,
// and reads the min/max timestamps. A file too short to hold the header
// or with a wrong magic is skipped (nil), never fatal: it is either a
// crash artifact or foreign.
func indexChunk(path string, seq int) (*chunk, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	if len(data) < chunkHeader || string(data[:4]) != chunkMagic {
		return nil, nil
	}
	n := (len(data) - chunkHeader) / pointBytes
	if whole := chunkHeader + n*pointBytes; whole != len(data) {
		// Torn tail from a crash mid-append: drop the partial point so the
		// next append starts on a record boundary.
		if err := os.Truncate(path, int64(whole)); err != nil {
			return nil, fmt.Errorf("metrics: %w", err)
		}
	}
	c := &chunk{seq: seq, path: path, count: n}
	if n > 0 {
		c.minT = int64(binary.LittleEndian.Uint64(data[chunkHeader:]))
		last := chunkHeader + (n-1)*pointBytes
		c.maxT = int64(binary.LittleEndian.Uint64(data[last:]))
	}
	return c, nil
}

// Append adds one point to the named series, creating it on first use.
// Appends are best-effort by convention at call sites — progress
// metrics must never fail the job that produced them — but the error is
// returned for callers that do care (and counted either way; see
// Stats). The faultinject site "metrics.append" covers this path.
func (s *Store) Append(name string, p Point) error {
	err := s.append(name, p)
	s.mu.Lock()
	if err != nil {
		s.appendErrors++
	} else {
		s.appends++
	}
	s.mu.Unlock()
	return err
}

func (s *Store) append(name string, p Point) error {
	if err := faultinject.Check(faultinject.SiteMetricsAppend); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if name == "" {
		return fmt.Errorf("metrics: empty series name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.series == nil {
		return fmt.Errorf("metrics: store closed")
	}
	ser := s.series[name]
	if ser == nil {
		dir := filepath.Join(s.root, url.PathEscape(name))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		ser = &series{name: name, dir: dir}
		s.series[name] = ser
	}
	// Roll to a fresh chunk when there is none or the active one is full.
	if len(ser.chunks) == 0 || ser.active().count >= s.ret.ChunkPoints {
		if err := s.rollChunkLocked(ser); err != nil {
			return err
		}
	}
	c := ser.active()
	if ser.f == nil {
		f, err := os.OpenFile(c.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		ser.f = f
	}
	var buf [pointBytes]byte
	t := p.T.UnixNano()
	binary.LittleEndian.PutUint64(buf[0:], uint64(t))
	binary.LittleEndian.PutUint64(buf[8:], uint64(p.Step))
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(p.V))
	if _, err := ser.f.Write(buf[:]); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if c.count == 0 {
		c.minT = t
	}
	c.maxT = t
	c.count++
	if c.count >= s.ret.ChunkPoints {
		// Seal: close the append handle; the file is immutable from here.
		ser.f.Close()
		ser.f = nil
	}
	if s.ret.MaxBytes > 0 || s.ret.MaxAge > 0 {
		// Every append re-checks the bounds, so on-disk bytes never
		// exceed the limit between chunk boundaries (the soak test pins
		// this invariant against the filesystem).
		s.enforceRetentionLocked(time.Now())
	}
	return nil
}

// rollChunkLocked seals the current active chunk (if any) and creates
// the next one with a fresh header.
func (s *Store) rollChunkLocked(ser *series) error {
	if ser.f != nil {
		ser.f.Close()
		ser.f = nil
	}
	seq := 0
	if len(ser.chunks) > 0 {
		seq = ser.active().seq + 1
	}
	path := filepath.Join(ser.dir, fmt.Sprintf("chunk-%06d.bin", seq))
	var hdr [chunkHeader]byte
	copy(hdr[:], chunkMagic)
	binary.LittleEndian.PutUint32(hdr[4:], chunkVersion)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("metrics: %w", err)
	}
	ser.f = f
	ser.chunks = append(ser.chunks, &chunk{seq: seq, path: path})
	return nil
}

// enforceRetentionLocked deletes sealed chunks violating the age bound,
// then the globally oldest sealed chunks while the byte bound is
// exceeded. Active chunks (each series' last) are never deleted.
func (s *Store) enforceRetentionLocked(now time.Time) {
	if s.ret.MaxAge > 0 {
		cutoff := now.Add(-s.ret.MaxAge).UnixNano()
		for _, ser := range s.series {
			for len(ser.chunks) > 1 && ser.chunks[0].maxT < cutoff {
				s.evictChunkLocked(ser)
			}
		}
	}
	if s.ret.MaxBytes <= 0 {
		return
	}
	total := s.bytesLocked()
	for total > s.ret.MaxBytes {
		// Oldest sealed chunk across all series, by newest-point time.
		var victim *series
		for _, ser := range s.series {
			if len(ser.chunks) < 2 {
				continue
			}
			if victim == nil || ser.chunks[0].maxT < victim.chunks[0].maxT {
				victim = ser
			}
		}
		if victim == nil {
			return // only active chunks left; nothing evictable
		}
		total -= victim.chunks[0].bytes()
		s.evictChunkLocked(victim)
	}
}

// evictChunkLocked removes the series' oldest chunk from disk and the
// index, updating the eviction counters.
func (s *Store) evictChunkLocked(ser *series) {
	c := ser.chunks[0]
	os.Remove(c.path)
	ser.chunks = ser.chunks[1:]
	s.evictedChunks++
	s.evictedBytes += c.bytes()
}

func (s *Store) bytesLocked() int64 {
	var total int64
	for _, ser := range s.series {
		for _, c := range ser.chunks {
			total += c.bytes()
		}
	}
	return total
}

// SeriesNames lists the series whose name starts with prefix (empty
// matches all), sorted.
func (s *Store) SeriesNames(prefix string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var names []string
	for name := range s.series {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// readSeriesLocked loads every surviving point of a series in append
// order (chunk seq order, record order within a chunk).
func (s *Store) readSeriesLocked(ser *series) ([]Point, error) {
	var pts []Point
	for _, c := range ser.chunks {
		if c.count == 0 {
			continue
		}
		data, err := os.ReadFile(c.path)
		if err != nil {
			return nil, fmt.Errorf("metrics: %w", err)
		}
		n := (len(data) - chunkHeader) / pointBytes
		if n > c.count {
			n = c.count
		}
		for i := 0; i < n; i++ {
			off := chunkHeader + i*pointBytes
			pts = append(pts, Point{
				T:    time.Unix(0, int64(binary.LittleEndian.Uint64(data[off:]))).UTC(),
				Step: int64(binary.LittleEndian.Uint64(data[off+8:])),
				V:    math.Float64frombits(binary.LittleEndian.Uint64(data[off+16:])),
			})
		}
	}
	return pts, nil
}

// Tail returns the newest n points of a series in append order; fewer
// when the series is shorter (retention may have evicted the rest). A
// missing series returns nil.
func (s *Store) Tail(name string, n int) ([]Point, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ser := s.series[name]
	if ser == nil {
		return nil, nil
	}
	pts, err := s.readSeriesLocked(ser)
	if err != nil {
		return nil, err
	}
	if n > 0 && len(pts) > n {
		pts = pts[len(pts)-n:]
	}
	return pts, nil
}

// StoreStats is the store's counter snapshot, served under /v1/stats.
type StoreStats struct {
	Series        int   `json:"series"`
	Chunks        int   `json:"chunks"`
	Points        int64 `json:"points"`
	Bytes         int64 `json:"bytes"`
	LimitBytes    int64 `json:"limit_bytes,omitempty"`
	MaxAgeSec     int64 `json:"max_age_sec,omitempty"`
	Appends       int64 `json:"appends"`
	AppendErrors  int64 `json:"append_errors"`
	EvictedChunks int64 `json:"evicted_chunks"`
	EvictedBytes  int64 `json:"evicted_bytes"`
}

// Stats snapshots the store's size and counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{
		Series:        len(s.series),
		Bytes:         s.bytesLocked(),
		LimitBytes:    s.ret.MaxBytes,
		MaxAgeSec:     int64(s.ret.MaxAge / time.Second),
		Appends:       s.appends,
		AppendErrors:  s.appendErrors,
		EvictedChunks: s.evictedChunks,
		EvictedBytes:  s.evictedBytes,
	}
	for _, ser := range s.series {
		st.Chunks += len(ser.chunks)
		for _, c := range ser.chunks {
			st.Points += int64(c.count)
		}
	}
	return st
}

// Bytes returns the store's current on-disk size.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytesLocked()
}

// Root returns the store's directory.
func (s *Store) Root() string { return s.root }

// Close closes every open chunk handle. Appends after Close fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ser := range s.series {
		if ser.f != nil {
			ser.f.Close()
			ser.f = nil
		}
	}
	s.series = nil
	return nil
}
