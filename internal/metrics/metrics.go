// Package metrics is a chunked, append-only, on-disk time-series store
// for the progress of qserve's jobs: one short series per job metric
// (yield, evaluations, lane counters as a sweep or search advances),
// written while the job runs and idle once it ends. It is the
// retention-bounded event layer the paper's trajectory plots need —
// yield vs. Monte-Carlo budget, progress across evaluation counts —
// where the run store only keeps terminal outcomes.
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
// step counter, float64 value, little-endian). Appends go to the
// highest-numbered chunk of a series, one point per write; when it
// reaches capacity a new chunk starts. The store keeps one append
// handle, on the chunk written last, and reopens a chunk when appends
// move to another series: a job's series interleave step by step, and a
// finished job's series hold no file open.
//
// Retention is one rule: while the byte bound or the age bound is
// exceeded, the oldest chunk of the least recently appended series is
// deleted. Only the chunk the current append wrote is exempt, so on-disk
// bytes stay within the bound however many jobs the server runs. A series
// that loses its last chunk leaves the store, its directory with it.
// A torn final point (the process died mid-append) is truncated away on
// open, never fatal.
//
// Series names follow the convention "job:<key>/<metric>".
package metrics

import (
	"container/list"
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

// Retention bounds a store's disk footprint. Both bounds feed the one
// retention rule: while either is exceeded, the oldest chunk of the
// least recently appended series is deleted, sparing only the chunk the
// current append wrote.
type Retention struct {
	// MaxBytes bounds the total on-disk size across all series; 0 means
	// unbounded. An append that pushes the total past the bound evicts
	// until it fits, so the bound holds after every append unless it is
	// smaller than the one chunk that append wrote.
	MaxBytes int64
	// MaxAge bounds the age of the chunk retention would evict next:
	// while that chunk's newest point is older than MaxAge, it is
	// deleted. 0 means unbounded.
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
	maxT  int64 // unix nanos of the newest point; 0 when count == 0
}

func (c *chunk) bytes() int64 { return chunkHeader + int64(c.count)*pointBytes }

// series is one named series and its chunk list, ordered by seq;
// appends go to the last chunk.
type series struct {
	name   string
	dir    string
	chunks []*chunk
	elem   *list.Element // the series' place in Store.recency
}

func (s *series) last() *chunk { return s.chunks[len(s.chunks)-1] }

// Store is the chunked time-series store rooted at one directory. Safe
// for concurrent use.
type Store struct {
	mu      sync.Mutex
	root    string
	ret     Retention
	series  map[string]*series
	recency *list.List // of *series, least recently appended first
	bytes   int64      // logical size of every indexed chunk
	f       *os.File   // the one append handle, open on chunk fc
	fc      *chunk

	// counters for /v1/stats
	appends       int64
	appendErrors  int64
	evictedChunks int64
	evictedBytes  int64
}

// Open creates (if needed) and loads the store at dir, truncating any
// torn tail off each series' last chunk and applying the retention
// policy once. Series are ranked for retention by their newest point.
func Open(dir string, ret Retention) (*Store, error) {
	if ret.ChunkPoints <= 0 {
		ret.ChunkPoints = DefaultChunkPoints
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	s := &Store{root: dir, ret: ret, series: map[string]*series{}, recency: list.New()}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	var loaded []*series
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name, err := url.PathUnescape(e.Name())
		if err != nil {
			continue // foreign directory: not ours to manage
		}
		ser, err := openSeries(name, filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		if ser != nil {
			s.series[name] = ser
			loaded = append(loaded, ser)
			for _, c := range ser.chunks {
				s.bytes += c.bytes()
			}
		}
	}
	sort.SliceStable(loaded, func(i, j int) bool { return loaded[i].last().maxT < loaded[j].last().maxT })
	for _, ser := range loaded {
		ser.elem = s.recency.PushBack(ser)
	}
	s.enforceRetentionLocked(nil)
	return s, nil
}

// openSeries indexes one series directory: every chunk-*.bin file is
// sized up (a trailing partial point is truncated away) and its newest
// timestamp read from the last point. Returns nil when the directory
// holds no chunks.
func openSeries(name, dir string) (*series, error) {
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
// and reads the newest timestamp. A file too short to hold the header
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
		ser = &series{name: name, dir: filepath.Join(s.root, url.PathEscape(name))}
		if err := os.MkdirAll(ser.dir, 0o755); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}
	if len(ser.chunks) == 0 || ser.last().count >= s.ret.ChunkPoints {
		if err := s.rollChunkLocked(ser); err != nil {
			if len(ser.chunks) == 0 {
				os.Remove(ser.dir) // a series enters the index with its first chunk
			}
			return err
		}
	}
	if ser.elem == nil {
		s.series[name] = ser
		ser.elem = s.recency.PushBack(ser)
	} else {
		s.recency.MoveToBack(ser.elem)
	}
	c := ser.last()
	if s.fc != c {
		s.closeHandleLocked()
		f, err := os.OpenFile(c.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		s.f, s.fc = f, c
	}
	var buf [pointBytes]byte
	t := p.T.UnixNano()
	binary.LittleEndian.PutUint64(buf[0:], uint64(t))
	binary.LittleEndian.PutUint64(buf[8:], uint64(p.Step))
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(p.V))
	if _, err := s.f.Write(buf[:]); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	c.maxT = t
	c.count++
	s.bytes += pointBytes
	s.enforceRetentionLocked(c)
	return nil
}

// rollChunkLocked creates the series' next chunk with a fresh header.
func (s *Store) rollChunkLocked(ser *series) error {
	seq := 0
	if len(ser.chunks) > 0 {
		seq = ser.last().seq + 1
	}
	path := filepath.Join(ser.dir, fmt.Sprintf("chunk-%06d.bin", seq))
	hdr := binary.LittleEndian.AppendUint32([]byte(chunkMagic), chunkVersion)
	if err := os.WriteFile(path, hdr, 0o644); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	ser.chunks = append(ser.chunks, &chunk{seq: seq, path: path})
	s.bytes += chunkHeader
	return nil
}

func (s *Store) closeHandleLocked() {
	if s.f != nil {
		s.f.Close()
	}
	s.f, s.fc = nil, nil
}

// enforceRetentionLocked applies the retention rule: while the byte
// bound or the age bound is exceeded, delete the oldest chunk of the
// least recently appended series. keep, the chunk the current append
// wrote, is exempt.
func (s *Store) enforceRetentionLocked(keep *chunk) {
	cutoff := time.Now().Add(-s.ret.MaxAge).UnixNano()
	for e := s.recency.Front(); e != nil; e = s.recency.Front() {
		ser := e.Value.(*series)
		c := ser.chunks[0]
		overBytes := s.ret.MaxBytes > 0 && s.bytes > s.ret.MaxBytes
		overAge := s.ret.MaxAge > 0 && c.maxT < cutoff
		if c == keep || !overBytes && !overAge {
			return
		}
		s.evictChunkLocked(ser)
	}
}

// evictChunkLocked removes the series' oldest chunk from disk and the
// index, and the series itself once it holds no chunk.
func (s *Store) evictChunkLocked(ser *series) {
	c := ser.chunks[0]
	if c == s.fc {
		s.closeHandleLocked()
	}
	os.Remove(c.path)
	ser.chunks = ser.chunks[1:]
	s.bytes -= c.bytes()
	s.evictedChunks++
	s.evictedBytes += c.bytes()
	if len(ser.chunks) == 0 {
		delete(s.series, ser.name)
		s.recency.Remove(ser.elem)
		os.Remove(ser.dir)
	}
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
		Bytes:         s.bytes,
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
	return s.bytes
}

// Root returns the store's directory.
func (s *Store) Root() string { return s.root }

// Close closes the append handle. Appends after Close fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeHandleLocked()
	s.series = nil
	return nil
}
