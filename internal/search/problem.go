package search

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"qproc/internal/arch"
	"qproc/internal/circuit"
	"qproc/internal/collision"
	"qproc/internal/core"
	"qproc/internal/freq"
	"qproc/internal/lattice"
	"qproc/internal/topology"
)

// freqCandidates is the shared (immutable) candidate frequency grid.
var freqCandidates = collision.Grid()

// baseLayout is one auxiliary-qubit variant of the program's layout: the
// bus-free architecture, the candidate bus squares, and the two frequency
// seeds a search may start a state from.
type baseLayout struct {
	aux  int
	arch *arch.Architecture
	// sites lists every candidate multi-qubit-bus square, in canonical
	// order — the universe bus moves draw from. Empty for graph families
	// (chimera, coupler), whose searches move over frequencies and aux
	// variants alone.
	sites []lattice.Square
	// seedAlloc is the Algorithm 3 assignment on the bus-free layout
	// (identical to the k=0 eff-full design of the exhaustive series);
	// seedFive is IBM's regular 5-frequency scheme.
	seedAlloc, seedFive []float64
}

// space is what every lane of one search run shares: the program, its
// per-aux base layouts and frequency seeds, and the analytic memo. It is
// built once per run from options all lanes agree on (Seed, Params,
// Sigma, AuxCounts, Family) and never mutated afterwards; the memo's
// slots fill atomically, so concurrent lanes and proposals read it
// safely.
type space struct {
	circ *circuit.Circuit
	// family is the effective topology family (square when the options
	// name none); region is its frequency-interaction region policy.
	family topology.Family
	region func(adj [][]int, q int) []int
	// auxCounts is opt.AuxCounts deduplicated, original order kept.
	auxCounts []int
	bases     map[int]*baseLayout
	// memo serves the analytic marginals at (opt.Params, opt.Sigma) to
	// every state's scorer in every lane; it lives as long as the run.
	memo *collision.Marginals
}

// Problem is one lane's view of a search instance: the run's shared
// space under the lane's own options and proposal counter.
type Problem struct {
	*space
	opt Options
	// proposals counts every candidate state the lane constructed (and
	// therefore scored by the analytic surrogate). Mutated only on the
	// lane's serial control path.
	proposals int
}

// problem returns a lane's problem over the shared space.
func (sp *space) problem(opt Options) *Problem { return &Problem{space: sp, opt: opt} }

// newSpace builds the per-aux base layouts and frequency seeds.
func newSpace(c *circuit.Circuit, opt Options) (*space, error) {
	sp := &space{circ: c, bases: map[int]*baseLayout{},
		memo: collision.NewMarginals(opt.Params, opt.Sigma)}
	sp.family = opt.Family
	if sp.family == nil {
		sp.family = topology.Square{}
	}
	sp.region = freq.Region
	if !topology.IsSquare(sp.family) {
		sp.region = sp.family.Region
	}
	// The seed allocations come from the design flow's own allocator, so
	// the aux-k=0 seed state is the same design the exhaustive series
	// evaluates at k=0.
	flow := core.NewFlow(opt.Seed)
	flow.Family = opt.Family
	al := flow.Allocator()
	for _, aux := range opt.AuxCounts {
		if _, dup := sp.bases[aux]; dup {
			continue
		}
		base, _, err := flow.BaseLayout(c, aux)
		if err != nil {
			return nil, fmt.Errorf("search: aux=%d: %w", aux, err)
		}
		sp.bases[aux] = &baseLayout{
			aux:       aux,
			arch:      base,
			sites:     base.CandidateSquares(),
			seedAlloc: al.Allocate(base),
			seedFive:  arch.FiveFreqScheme(base),
		}
		sp.auxCounts = append(sp.auxCounts, aux)
	}
	return sp, nil
}

// State is one point of the design space: an aux layout variant, a set of
// multi-qubit bus squares, and a frequency assignment. States are immutable
// once returned by newState/apply; a reseed's state shares its origin's
// architecture topology and owns only its frequencies.
type State struct {
	Aux int
	// Sites are the bus squares, canonically sorted; the prohibited
	// condition makes application order irrelevant.
	Sites []lattice.Square
	Arch  *arch.Architecture
	// Expected is the analytic expected collision count at the search σ —
	// the surrogate score every proposal is ranked by.
	Expected float64

	inc *collision.Incremental
	key string
	// topoKey identifies the coupling topology alone (aux variant + bus
	// sites): states sharing it have identical adjacency lists, which
	// is what lets the evaluator re-estimate frequency-only promotions
	// incrementally.
	topoKey string
}

// Freqs returns the state's frequency assignment.
func (st *State) Freqs() []float64 { return st.inc.Freqs() }

// Key is the canonical identity of the state: aux variant, bus sites
// and grid frequencies. Used for deduplication and deterministic
// tie-breaking.
func (st *State) Key() string { return st.key }

func sortSites(sites []lattice.Square) {
	sort.Slice(sites, func(i, j int) bool { return sites[i].Origin.Less(sites[j].Origin) })
}

// newState assembles and scores a state. sites and freqs are retained
// (callers pass fresh copies); sites are re-sorted in place. It fails
// when the site set violates eligibility or the prohibited condition.
func (p *Problem) newState(aux int, sites []lattice.Square, freqs []float64) (*State, error) {
	base, ok := p.bases[aux]
	if !ok {
		return nil, fmt.Errorf("search: aux=%d is not a configured layout variant", aux)
	}
	if p.opt.MaxBuses >= 0 && len(sites) > p.opt.MaxBuses {
		return nil, fmt.Errorf("search: %d bus sites exceed MaxBuses=%d", len(sites), p.opt.MaxBuses)
	}
	sortSites(sites)
	a := base.arch.Clone()
	for _, s := range sites {
		if err := a.ApplyMultiBus(s); err != nil {
			return nil, fmt.Errorf("search: %w", err)
		}
	}
	if err := a.SetFrequencies(freqs); err != nil {
		return nil, fmt.Errorf("search: %w", err)
	}
	inc := collision.NewIncrementalWith(a.AdjList(), freqs, p.memo)
	st := &State{
		Aux:      aux,
		Sites:    sites,
		Arch:     a,
		Expected: inc.Score(),
		inc:      inc,
		topoKey:  topoKey(aux, sites),
	}
	st.key = stateKey(st.topoKey, freqs)
	return st, nil
}

// topoKey canonically names a coupling topology: the aux layout variant
// plus the sorted bus sites. Equal topoKeys imply equal adjacency
// lists (the sites are applied to the same base layout in the same
// canonical order).
func topoKey(aux int, sites []lattice.Square) string {
	var b strings.Builder
	fmt.Fprintf(&b, "aux=%d|", aux)
	for _, s := range sites {
		fmt.Fprintf(&b, "%d,%d;", s.Origin.X, s.Origin.Y)
	}
	return b.String()
}

func stateKey(topo string, freqs []float64) string {
	var b strings.Builder
	b.WriteString(topo)
	b.WriteByte('|')
	for _, f := range freqs {
		// Full precision: the 5-frequency seed values sit off the 0.01
		// candidate grid, and two distinct designs must never share a key
		// (the evaluator memoises Monte-Carlo results by key).
		b.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
		b.WriteByte(' ')
	}
	return b.String()
}

// seedStates returns the deduplicated initial states: the WarmStart
// state first when one is configured, then for every aux variant the
// Algorithm 3 assignment and the 5-frequency scheme on the bus-free
// layout. Annealing starts from the first state, so a warm start shifts
// the trajectory without removing any cold seed.
func (p *Problem) seedStates() ([]*State, error) {
	var out []*State
	seen := map[string]bool{}
	add := func(st *State) {
		if !seen[st.key] {
			seen[st.key] = true
			out = append(out, st)
		}
	}
	if warm, err := p.warmState(); err != nil {
		return nil, err
	} else if warm != nil {
		add(warm)
	}
	for _, aux := range p.auxCounts {
		base := p.bases[aux]
		for _, freqs := range [][]float64{base.seedAlloc, base.seedFive} {
			st, err := p.newState(aux, nil, append([]float64(nil), freqs...))
			if err != nil {
				return nil, err
			}
			p.proposals++
			add(st)
		}
	}
	return out, nil
}

// warmState builds the Options.WarmStart seed: starting from the
// Algorithm 3 assignment on the hinted aux variant, the analytically
// best eligible bus site is added greedily until the hinted budget
// (clamped by MaxBuses and eligibility) is reached. Nil when no hint is
// configured or the hint names an unconfigured aux variant.
func (p *Problem) warmState() (*State, error) {
	ws := p.opt.WarmStart
	if ws == nil {
		return nil, nil
	}
	if _, ok := p.bases[ws.Aux]; !ok {
		return nil, nil // stale hint: variant not part of this search
	}
	base := p.bases[ws.Aux]
	st, err := p.newState(ws.Aux, nil, append([]float64(nil), base.seedAlloc...))
	if err != nil {
		return nil, err
	}
	p.proposals++
	target := ws.Buses
	if p.opt.MaxBuses >= 0 && target > p.opt.MaxBuses {
		target = p.opt.MaxBuses
	}
	for len(st.Sites) < target {
		var next *State
		for _, s := range p.addCandidates(st) {
			cand, err := p.apply(st, move{kind: moveAddBus, site: s})
			if err != nil {
				continue // site became ineligible under the current set
			}
			p.proposals++
			if next == nil || cand.Expected < next.Expected ||
				(cand.Expected == next.Expected && cand.key < next.key) {
				next = cand
			}
		}
		if next == nil {
			break // no eligible site left below the budget
		}
		st = next
	}
	return st, nil
}

// repair runs one incremental coordinate-descent pass over the given
// qubits (ascending, deduplicated by the caller): each is moved to the
// candidate frequency minimising the analytic score, consulting only the
// collision terms the move can touch. This is the "incremental yield
// re-estimation" of a local perturbation — no Monte-Carlo runs here.
func repair(inc *collision.Incremental, qubits []int) {
	for _, q := range qubits {
		if f, _, improved := bestFreqFor(inc, q); improved {
			inc.Set1(q, f)
		}
	}
}

// bestFreqFor runs one coordinate-descent step for qubit q: the candidate
// frequency minimising the incremental analytic score. The incumbent wins
// ties, then the lowest candidate; improved reports whether a strictly
// better candidate exists. q's move plan ranks all 35 candidates by the
// terms a move changes, and Preview1 verifies only those that can still
// win (collision.MovePlan), so the pick is the full Preview1 loop's.
func bestFreqFor(inc *collision.Incremental, q int) (best float64, bestE float64, improved bool) {
	cur := inc.Freq(q)
	plan := inc.Plan(q)
	best, bestE = plan.Best(cur, func(f float64) float64 { return inc.Preview1(q, f) })
	return best, bestE, best != cur
}

// repairState re-scores st after repairing the regions around the seed
// qubits (their family frequency-interaction neighbourhoods), excluding
// the qubits in keep (whose frequencies a move just pinned).
func (p *Problem) repairState(st *State, seeds []int, keep map[int]bool) {
	adj := st.inc.Adj()
	region := map[int]bool{}
	for _, q := range seeds {
		for _, r := range p.region(adj, q) {
			if !keep[r] {
				region[r] = true
			}
		}
	}
	qs := make([]int, 0, len(region))
	for q := range region {
		qs = append(qs, q)
	}
	sort.Ints(qs)
	repair(st.inc, qs)
	fr := st.inc.Freqs()
	if err := st.Arch.SetFrequencies(fr); err != nil {
		panic(err) // unreachable: length preserved
	}
	st.Expected = st.inc.Score()
	st.key = stateKey(st.topoKey, fr)
}

// adoptState re-materialises a state from another lane inside this
// one: same aux variant, bus sites and frequencies, but a fresh
// architecture and incremental scorer owned by this lane — lanes share
// only the run's immutable space and its atomically filled memo, never
// a state. Every lane builds on the same base layouts, so the
// reconstruction is exact (equal canonical key) and cannot fail for a
// state that was legal in its home lane.
func (p *Problem) adoptState(st *State) (*State, error) {
	next, err := p.newState(st.Aux, append([]lattice.Square(nil), st.Sites...), st.Freqs())
	if err != nil {
		return nil, err
	}
	p.proposals++
	return next, nil
}

// siteQubits returns the qubit ids a bus on square s would join in the
// aux variant's layout.
func (p *Problem) siteQubits(aux int, s lattice.Square) []int {
	return p.bases[aux].arch.SquareQubits(s)
}

// moveKind enumerates the neighbour move types.
type moveKind uint8

const (
	moveAddBus moveKind = iota
	moveRemoveBus
	moveShiftBus
	moveAuxJump
	moveReseed
)

// move is one neighbour move relative to an origin state. Moves are plain
// data so they can be drawn serially and applied concurrently.
type move struct {
	kind moveKind
	// site is the bus square to add (moveAddBus, moveShiftBus).
	site lattice.Square
	// old is the bus square to remove (moveRemoveBus, moveShiftBus).
	old lattice.Square
	// aux and five select the seed state of an aux jump.
	aux  int
	five bool
	// qubit and freq describe a frequency re-seed.
	qubit int
	freq  float64
}

// apply constructs the neighbour state m produces from st. A nil state
// with nil error means the move degenerated to a no-op.
func (p *Problem) apply(st *State, m move) (*State, error) {
	switch m.kind {
	case moveAddBus, moveRemoveBus, moveShiftBus:
		// A bus move drops m.old (remove, shift) and adds m.site (add,
		// shift), then repairs the regions around the squares it moved.
		// Clipped, so an add's append copies st.Sites instead of sharing it.
		sites, seeds := slices.Clip(st.Sites), []int(nil)
		if m.kind != moveAddBus {
			if sites = removeSite(st.Sites, m.old); len(sites) == len(st.Sites) {
				return nil, fmt.Errorf("search: %v not selected", m.old)
			}
			seeds = p.siteQubits(st.Aux, m.old)
		}
		if m.kind != moveRemoveBus {
			sites = append(sites, m.site)
			seeds = append(seeds, p.siteQubits(st.Aux, m.site)...)
		}
		next, err := p.newState(st.Aux, sites, st.Freqs())
		if err != nil {
			return nil, err
		}
		p.repairState(next, seeds, nil)
		return next, nil
	case moveAuxJump:
		base, ok := p.bases[m.aux]
		if !ok {
			return nil, fmt.Errorf("search: aux=%d is not a configured layout variant", m.aux)
		}
		freqs := base.seedAlloc
		if m.five {
			freqs = base.seedFive
		}
		return p.newState(m.aux, nil, append([]float64(nil), freqs...))
	case moveReseed:
		// Topology unchanged: clone the compiled scorer instead of
		// rebuilding architecture and term bundles from scratch — this is
		// the annealer's most common move and the incremental fast path.
		// The new architecture shares st's coordinates and buses, which
		// no state mutates, and owns only the frequencies repairState
		// installs.
		inc := st.inc.Clone()
		inc.Set1(m.qubit, m.freq)
		a := *st.Arch
		next := &State{
			Aux:     st.Aux,
			Sites:   append([]lattice.Square(nil), st.Sites...),
			Arch:    &a,
			inc:     inc,
			topoKey: st.topoKey,
		}
		// Repair the perturbed region but keep the kick pinned, so the
		// move can escape the local minimum the incumbent sits in.
		p.repairState(next, []int{m.qubit}, map[int]bool{m.qubit: true})
		return next, nil
	}
	return nil, fmt.Errorf("search: unknown move kind %d", m.kind)
}

func removeSite(sites []lattice.Square, victim lattice.Square) []lattice.Square {
	out := make([]lattice.Square, 0, len(sites))
	for _, s := range sites {
		if s != victim {
			out = append(out, s)
		}
	}
	return out
}

// addCandidates lists the squares an add-bus move may target from st, in
// canonical order.
func (p *Problem) addCandidates(st *State) []lattice.Square {
	if p.opt.MaxBuses >= 0 && len(st.Sites) >= p.opt.MaxBuses {
		return nil
	}
	var out []lattice.Square
	for _, s := range p.bases[st.Aux].sites {
		if st.Arch.CanApplyMultiBus(s) {
			out = append(out, s)
		}
	}
	return out
}

// bestReseeds derives the deterministic per-qubit coordinate-descent
// moves of st: for each qubit, the candidate frequency minimising the
// incremental analytic score, when it differs from the incumbent.
func (p *Problem) bestReseeds(st *State) []move {
	var out []move
	for q := 0; q < st.Arch.NumQubits(); q++ {
		if f, _, improved := bestFreqFor(st.inc, q); improved {
			out = append(out, move{kind: moveReseed, qubit: q, freq: f})
		}
	}
	return out
}
