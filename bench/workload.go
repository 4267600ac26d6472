package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"qproc/internal/core"
	"qproc/internal/experiments"
	"qproc/internal/search"
)

// request is one submission a client makes: a job spec, plus what the
// client does around it. Clients fill the fields below the blank line
// once the server has answered; a request belongs to one client
// goroutine from the moment a stream hands it out.
type request struct {
	kind  string
	spec  json.RawMessage
	round int
	// job is the submitted job, the basis of the client-side JobKey.
	job experiments.Job
	// warmFrom is the sweep, submitted earlier by the same client, that
	// the server warm-starts this search from.
	warmFrom *request
	// repeat marks a resubmission of an earlier request: the server
	// dedupes it onto the stored job.
	repeat *request
	// metricsOf, when set, is a search whose yield series the client
	// reads after this request's result.
	metricsOf *request

	id     string
	sweep  *experiments.SweepResult
	result []byte
}

// submission is the POST /v1/jobs body.
func (r *request) submission() ([]byte, error) {
	return json.Marshal(map[string]any{"kind": r.kind, "spec": r.spec})
}

func newRequest(job experiments.Job, round int) *request {
	var spec any
	switch j := job.(type) {
	case experiments.SweepJob:
		spec = j.Spec
	case experiments.SearchJob:
		spec = j.Spec
	case experiments.PortfolioJob:
		spec = j.Spec
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		panic(fmt.Sprintf("bench: encoding %s spec: %v", job.Kind(), err))
	}
	return &request{kind: job.Kind(), spec: raw, round: round, job: job}
}

// limits decides when a closed loop stops taking requests. A run always
// ends on a round boundary, after at least seconds of load and at least
// minRequests requests, so every run sends whole rounds of the same
// program and variant sequence; maxRequests (tests only) cuts a run
// short anywhere.
type limits struct {
	seconds     float64
	minRequests int
	maxRequests int
}

// gate admits requests while the limits allow.
type gate struct {
	lim    limits
	start  time.Time
	issued atomic.Int64
}

func (g *gate) admit(boundary bool) bool {
	n := g.issued.Load()
	if g.lim.maxRequests > 0 && n >= int64(g.lim.maxRequests) {
		return false
	}
	if boundary && time.Since(g.start).Seconds() >= g.lim.seconds && n >= int64(g.lim.minRequests) {
		return false
	}
	g.issued.Add(1)
	return true
}

// stream hands out a workload's requests in order, one generated round
// at a time. Both clients pull from one stream, or each from its own.
type stream struct {
	mu    sync.Mutex
	gen   func(round int) []*request
	buf   []*request
	round int
	log   []*request // every request handed out, in order
}

func (s *stream) next(g *gate) *request {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !g.admit(len(s.buf) == 0) {
		return nil
	}
	if len(s.buf) == 0 {
		s.buf = s.gen(s.round)
		s.round++
	}
	r := s.buf[0]
	s.buf = s.buf[1:]
	s.log = append(s.log, r)
	return r
}

// workload is one traffic mix. Its streams are built from the seed
// alone, so the same seed always produces the same requests.
type workload struct {
	name string
	// warmup is the set-up job: a fixed spec at σ = 0.050, outside the
	// 0.020–0.045 grid every timed request draws from.
	warmup func() *request
	// streams returns one shared stream or one stream per client.
	streams func(seed int64) []*stream
	// requests is the least number of requests a run sends. It is at
	// least 40, so the latency p75 has 10 samples beyond it, and large
	// enough that a run usually outlasts --seconds: then every run of a
	// workload does the same work.
	requests int
}

const (
	clients     = 2
	warmupSigma = 0.050
	sampleJobs  = 8
)

var (
	mapHeavy = []string{"qft_16", "rd84_142", "misex1_241", "square_root_7", "cm152a_212", "UCCSD_ansatz_8"}
	// searchPrograms fit chimera(2,2,4) and the coupler grid.
	searchPrograms = []string{"sym6_145", "z4_268", "dc1_220", "adr4_197", "radd_250", "cm152a_212"}
	// mixedPrograms gives each client disjoint programs, so a search can
	// only warm-start from its own client's sweep.
	mixedPrograms = [clients][]string{{"sym6_145", "dc1_220"}, {"z4_268", "adr4_197"}}
)

var workloads = []workload{
	// Five-config sweeps of mapping-heavy programs: SABRE and the core
	// flow do the work; the search layer does none.
	{
		name:     "sweep-map",
		requests: 42,
		warmup: func() *request {
			return newRequest(sweepJob("cm152a_212", warmupSigma, nil, []int{0}), -1)
		},
		streams: func(seed int64) []*stream {
			pools := newPools(seed, 0)
			return []*stream{{gen: func(round int) []*request {
				var out []*request
				for _, p := range mapHeavy {
					out = append(out, newRequest(sweepJob(p, pools.next(p), nil, []int{0}), round))
				}
				return out
			}}}
		},
	},
	// Single-lane searches: the analytic preview, incremental Monte-Carlo,
	// per-step events and checkpoints; one mapping per job, on the winner.
	{
		name:     "search-anneal",
		requests: 40,
		warmup: func() *request {
			return newRequest(searchJob("sym6_145", warmupSigma, searchVariant{}, 10), -1)
		},
		streams: func(seed int64) []*stream {
			pools := newPools(seed, 2)
			// One round is 20 jobs: 60% square anneal (a), 15% square beam
			// (b), 15% coupler anneal (c), 10% chimera anneal (d).
			return []*stream{slotStream("abaadacabaacaadaabca", func(g int, v searchVariant) experiments.Job {
				p := searchPrograms[g%len(searchPrograms)]
				return searchJob(p, pools.next(p+v.name), v, 10)
			})}
		},
	},
	// 4-lane portfolios on 2 workers: lane contention, the shared kernel
	// cache, exchange barriers and a checkpoint at each barrier.
	{
		name:     "portfolio",
		requests: 40,
		warmup: func() *request {
			return newRequest(portfolioJob("sym6_145", warmupSigma, ""), -1)
		},
		streams: func(seed int64) []*stream {
			pools := newPools(seed, 4)
			// One round is 8 jobs, 25% on coupler.
			return []*stream{slotStream("aaacaaac", func(g int, v searchVariant) experiments.Job {
				p := searchPrograms[g%len(searchPrograms)]
				return portfolioJob(p, pools.next(p+v.name), v.topology)
			})}
		},
	},
	// Short sweeps, warm-started beam searches, dedupe and metrics reads:
	// submit-time store scans, index rewrites, journal fsyncs, and reads
	// beside writes carry a visible share of the time.
	{
		name:     "mixed-store",
		requests: 160,
		warmup: func() *request {
			return newRequest(sweepJob("sym6_145", warmupSigma, mixedConfigs, []int{0, 1}), -1)
		},
		streams: func(seed int64) []*stream {
			var out []*stream
			for c := 0; c < clients; c++ {
				out = append(out, mixedStream(seed, c))
			}
			return out
		},
	},
}

var mixedConfigs = []core.Config{core.ConfigIBM, core.ConfigEffFull}

// mixedStream is one mixed-store client's sequence. A round is one
// iteration per owned program: a small sweep at a fresh σ, then a beam
// search at the same (program, σ) that warm-starts from it. Every third
// iteration adds a resubmission of an earlier request and a read of the
// iteration's search yield series.
func mixedStream(seed int64, client int) *stream {
	pools := newPools(seed, 6+2*int64(client))
	rng := newRand(seed, 7+2*int64(client))
	progs := mixedPrograms[client]
	var history []*request
	iter := 0
	return &stream{gen: func(round int) []*request {
		var out []*request
		for _, p := range progs {
			sigma := pools.next(p)
			sw := newRequest(sweepJob(p, sigma, mixedConfigs, []int{0, 1}), round)
			se := newRequest(searchJob(p, sigma, searchVariant{strategy: search.Beam}, 10), round)
			se.warmFrom = sw
			out = append(out, sw, se)
			if iter%3 == 2 {
				orig := history[rng.Intn(len(history))]
				out = append(out, &request{kind: orig.kind, spec: orig.spec, round: round, job: orig.job,
					warmFrom: orig.warmFrom, repeat: orig, metricsOf: se})
			}
			history = append(history, sw, se)
			iter++
		}
		return out
	}}
}

// slotStream repeats a fixed pattern of search variants, one letter per
// job (a anneal, b beam, c coupler, d chimera). Jobs are numbered across
// rounds, so programs cycle through the pattern's slots. Only σ depends
// on the seed: every run sends the same program and variant sequence,
// which keeps the spread between seeds down to what σ changes.
func slotStream(pattern string, job func(g int, v searchVariant) experiments.Job) *stream {
	return &stream{gen: func(round int) []*request {
		var out []*request
		for i, l := range pattern {
			out = append(out, newRequest(job(round*len(pattern)+i, searchVariants[l-'a']), round))
		}
		return out
	}}
}

// searchVariant is one search-anneal job shape.
type searchVariant struct {
	name     string
	strategy search.Strategy
	topology string
	aux      []int
	steps    int
}

var searchVariants = []searchVariant{
	{name: "anneal"},
	{name: "beam", strategy: search.Beam},
	{name: "coupler", topology: "coupler"},
	// chimera(2,2,4) is a fixed chip: no auxiliary qubits.
	{name: "chimera", topology: "chimera(2,2,4)", aux: []int{0}, steps: 60},
}

func sweepJob(p string, sigma float64, configs []core.Config, aux []int) experiments.Job {
	if configs == nil {
		configs = core.Configs()
	}
	return experiments.SweepJob{Spec: experiments.SweepSpec{
		Benchmarks: []string{p}, Configs: configs, AuxCounts: aux, Sigmas: []float64{sigma},
	}}
}

func searchSpec(p string, sigma float64, v searchVariant, maxEvals int) experiments.SearchSpec {
	s := experiments.SearchSpec{
		Benchmark: p, Strategy: v.strategy, Topology: v.topology, AuxCounts: v.aux,
		Sigma: sigma, MaxEvals: maxEvals, Steps: v.steps,
	}
	if s.Strategy == "" {
		s.Strategy = search.Anneal
	}
	if s.AuxCounts == nil {
		s.AuxCounts = []int{0, 1}
	}
	if s.Steps == 0 && s.Strategy == search.Anneal {
		s.Steps = 120
	}
	return s
}

func searchJob(p string, sigma float64, v searchVariant, maxEvals int) experiments.Job {
	return experiments.SearchJob{Spec: searchSpec(p, sigma, v, maxEvals)}
}

// portfolioSteps keeps a 40-job portfolio run near 30 s on two CPUs:
// four lanes of 60 annealing steps construct as many proposals as two
// 120-step single-lane searches.
const portfolioSteps = 60

func portfolioJob(p string, sigma float64, topology string) experiments.Job {
	return experiments.PortfolioJob{Spec: experiments.PortfolioSpec{
		SearchSpec: searchSpec(p, sigma, searchVariant{topology: topology, steps: portfolioSteps}, 20),
		Lanes:      4,
	}}
}

func newRand(seed, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// sigmaPools draws σ without replacement per key (a program, or a
// program and variant), so every job key in a run is fresh. A pool
// walks the 0.020–0.045 grid in 0.001 steps in shuffled order; should a
// run outlast it, the next pass shifts the grid by 1/8 of a step.
type sigmaPools struct {
	rng  *rand.Rand
	left map[string][]float64
	pass map[string]int
}

func newPools(seed, stream int64) *sigmaPools {
	return &sigmaPools{rng: newRand(seed, 100+stream), left: map[string][]float64{}, pass: map[string]int{}}
}

func (p *sigmaPools) next(key string) float64 {
	if len(p.left[key]) == 0 {
		pass := p.pass[key]
		p.pass[key]++
		var grid []float64
		for k := 20; k <= 45; k++ {
			grid = append(grid, float64(8*k+pass%8)/8000)
		}
		p.rng.Shuffle(len(grid), func(i, j int) { grid[i], grid[j] = grid[j], grid[i] })
		p.left[key] = grid
	}
	s := p.left[key][0]
	p.left[key] = p.left[key][1:]
	return s
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
