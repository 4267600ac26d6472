package mapper

import (
	"crypto/sha256"
	"encoding/binary"
	"math"

	"qproc/internal/arch"
	"qproc/internal/circuit"
	"qproc/internal/memo"
)

// entryBytes is what one Cache entry is charged: a SHA-256 key and two
// ints, plus the map slot and recency bookkeeping around them.
const entryBytes = 128

// cacheBytes bounds a Cache at 4096 entries. The twelve benchmarks × five
// configurations × aux 0–2 generate 306 distinct (program, topology)
// pairs under the default options, so the bound holds more than 10× the
// whole design space of the paper's evaluation, in 512 KiB.
const cacheBytes = 4096 * entryBytes

// Counts are the routing metrics sweeps and searches report: Map's
// GateCount (the paper's performance metric) and Swaps.
type Counts struct {
	GateCount, Swaps int
}

// Program is a circuit together with a fingerprint of everything Map
// reads from it: its qubit count and every gate's kind and qubits. Names
// and parameters never steer routing and stay out. Build one per job, so
// each Cache lookup hashes only the architecture and the options.
type Program struct {
	c   *circuit.Circuit
	sum [sha256.Size]byte
}

// NewProgram fingerprints c, which must not change afterwards.
func NewProgram(c *circuit.Circuit) *Program {
	buf := binary.LittleEndian.AppendUint64(nil, uint64(c.Qubits))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(c.Gates)))
	for _, g := range c.Gates {
		buf = append(buf, byte(g.Kind), byte(len(g.Qubits)))
		for _, q := range g.Qubits {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(q))
		}
	}
	return &Program{c: c, sum: sha256.Sum256(buf)}
}

// key is the SHA-256 of everything Map reads to route p onto a under
// opt: the program's fingerprint, the architecture's coordinates (the
// snake seed walks them) and sorted couplings, and every option. Names
// and frequencies stay out, so designs that share a topology share a
// key.
func (p *Program) key(a *arch.Architecture, opt Options) [sha256.Size]byte {
	edges := a.Edges()
	buf := make([]byte, 0, len(p.sum)+8*(2+len(a.Coords)+len(edges)+5))
	buf = append(buf, p.sum[:]...)
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	u64(uint64(len(a.Coords)))
	for _, c := range a.Coords {
		u64(uint64(int64(c.X)))
		u64(uint64(int64(c.Y)))
	}
	u64(uint64(len(edges)))
	for _, e := range edges {
		u64(uint64(e.A)<<32 | uint64(e.B))
	}
	u64(uint64(opt.ExtendedSize))
	u64(math.Float64bits(opt.ExtendedWeight))
	u64(math.Float64bits(opt.DecayDelta))
	u64(uint64(opt.DecayReset))
	u64(uint64(opt.Iterations))
	return sha256.Sum256(buf)
}

// Cache memoises Map's Counts by content, so each (program, topology,
// options) is routed once per cache however many jobs and designs ask
// for it. Map is deterministic, so a hit returns exactly what routing
// would. A Cache is safe for concurrent use: concurrent misses on one key
// route once. Its footprint is bounded by a constant (see cacheBytes),
// with least-recently-used eviction, which can only cost a re-route.
//
// A nil *Cache routes every call.
type Cache struct {
	m memo.Cache[[sha256.Size]byte, cachedCounts]
}

// cachedCounts is one entry; ok is false when Map failed (or panicked)
// on the key's content.
type cachedCounts struct {
	counts Counts
	ok     bool
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	c := &Cache{}
	c.m.SetLimit(cacheBytes)
	return c
}

// Counts returns the gate and SWAP counts of Map(p's circuit, a, opt),
// routing only on the first request for their content. A failure
// reaches each caller as its own Map error, which names its own
// architecture: a cached failure re-runs Map, whose every error arises
// before any routing.
func (c *Cache) Counts(p *Program, a *arch.Architecture, opt Options) (Counts, error) {
	if c == nil {
		return mapCounts(p.c, a, opt)
	}
	var err error
	v := c.m.Get(p.key(a, opt), func() (cachedCounts, int64) {
		var n Counts
		n, err = mapCounts(p.c, a, opt)
		return cachedCounts{counts: n, ok: err == nil}, entryBytes
	})
	if err != nil {
		return Counts{}, err
	}
	if !v.ok {
		return mapCounts(p.c, a, opt)
	}
	return v.counts, nil
}

// Snapshot reports the cache's counters and footprint.
func (c *Cache) Snapshot() memo.Snapshot { return c.m.Snapshot() }

func mapCounts(c *circuit.Circuit, a *arch.Architecture, opt Options) (Counts, error) {
	res, err := Map(c, a, opt)
	if err != nil {
		return Counts{}, err
	}
	return Counts{GateCount: res.GateCount, Swaps: res.Swaps}, nil
}
