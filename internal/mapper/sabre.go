package mapper

import (
	"fmt"

	"qproc/internal/arch"
	"qproc/internal/circuit"
	"qproc/internal/profile"
)

// Options tunes the router. The zero value is not meaningful; use
// DefaultOptions.
type Options struct {
	// ExtendedSize is the number of look-ahead CX gates in the extended
	// set E of the SABRE heuristic.
	ExtendedSize int
	// ExtendedWeight is the weight W of the extended-set term.
	ExtendedWeight float64
	// DecayDelta is the decay increment applied to the physical qubits
	// of each inserted SWAP, discouraging back-to-back swaps on the same
	// qubits and so encouraging parallelism.
	DecayDelta float64
	// DecayReset is the number of SWAP insertions after which all decay
	// factors reset to 1.
	DecayReset int
	// Iterations is the number of forward-backward refinement rounds run
	// to polish the initial mapping before the final forward pass.
	Iterations int
}

// DefaultOptions returns the SABRE parameters from the ASPLOS'19 paper
// (|E| = 20, W = 0.5, decay 0.001 reset every 5 swaps) with three
// forward-backward refinement rounds.
func DefaultOptions() Options {
	return Options{
		ExtendedSize:   20,
		ExtendedWeight: 0.5,
		DecayDelta:     0.001,
		DecayReset:     5,
		Iterations:     3,
	}
}

// Result is the outcome of mapping one circuit onto one architecture.
type Result struct {
	// Mapped is the physical circuit: it acts on the architecture's
	// physical qubits and every CX respects the coupling graph. SWAPs
	// appear pre-decomposed as 3 CX.
	Mapped *circuit.Circuit
	// Initial and Final give logical→physical mappings before and after
	// execution.
	Initial, Final []int
	// Swaps is the number of SWAPs inserted.
	Swaps int
	// GateCount is Mapped.GateCount(): original executable gates plus
	// 3 per inserted SWAP — the paper's performance metric.
	GateCount int
}

// Map routes the circuit onto the architecture and returns the mapping
// result. The circuit must be decomposed (no SWAP/CCX) and must not have
// more logical qubits than the architecture has physical qubits; the
// architecture's coupling graph must connect all physical qubits that end
// up holding logical qubits (guaranteed for connected graphs).
func Map(c *circuit.Circuit, a *arch.Architecture, opt Options) (*Result, error) {
	for i, g := range c.Gates {
		if g.Kind == circuit.SWAP || g.Kind == circuit.CCX {
			return nil, fmt.Errorf("mapper: gate %d (%v) not decomposed", i, g)
		}
	}
	if c.Qubits > a.NumQubits() {
		return nil, fmt.Errorf("mapper: program needs %d qubits, architecture %q has %d",
			c.Qubits, a.Name, a.NumQubits())
	}
	p, err := profile.New(c)
	if err != nil {
		return nil, fmt.Errorf("mapper: %w", err)
	}
	dm := NewDistances(a)
	if err := checkRoutable(p, dm); err != nil {
		return nil, err
	}

	// Two deterministic initial-mapping candidates: the coupling-driven
	// greedy and the snake walk (perfect for chain-structured programs).
	// Each is polished by SABRE forward-backward refinement; the final
	// routing with the fewest gates wins. Refinement passes only move the
	// mapping, so only the final pass emits a circuit.
	r := newRouter(c, a, dm, opt)
	// The DAGs of both directions are shared by every pass.
	fwd, bwd := circuit.NewDAG(c), circuit.NewDAG(reversed(c))
	var best *Result
	for _, seed := range []*Mapping{
		InitialMapping(p, a, dm),
		SnakeMapping(p, a),
	} {
		if !seedRoutable(p, dm, seed) {
			continue // e.g. the snake walk crossed architecture components
		}
		m := seed
		for it := 0; it < opt.Iterations; it++ {
			fm := m.Clone()
			if r.route(fwd, fm, nil) == 0 {
				break // already perfect; refinement cannot improve
			}
			r.route(bwd, fm, nil)
			m = fm
		}
		initial := append([]int(nil), m.L2P...)
		out := circuit.New(c.Name+"@"+a.Name, a.NumQubits())
		out.Gates = make([]circuit.Gate, 0, len(c.Gates))
		swaps := r.route(fwd, m, out)
		res := &Result{
			Mapped:    out,
			Initial:   initial,
			Final:     append([]int(nil), m.L2P...),
			Swaps:     swaps,
			GateCount: out.GateCount(),
		}
		if best == nil || res.GateCount < best.GateCount {
			best = res
		}
	}
	if best == nil {
		return nil, fmt.Errorf("mapper: no routable placement of %q on %q", c.Name, a.Name)
	}
	return best, nil
}

// seedRoutable reports whether every logically coupled pair is mutually
// reachable under the seed mapping.
func seedRoutable(p *profile.Profile, dm *Distances, m *Mapping) bool {
	for _, e := range p.Edges() {
		if dm.Between(m.L2P[e.A], m.L2P[e.B]) < 0 {
			return false
		}
	}
	return true
}

// checkRoutable rejects programs whose logical coupling graph spans more
// physical qubits than any connected component of the architecture can
// hold: no placement could ever route them. (A disconnected architecture
// is fine as long as one component fits the whole connected program.)
func checkRoutable(p *profile.Profile, dm *Distances) error {
	if dm.Connected() {
		return nil
	}
	// Size of each physical component.
	compOf := make([]int, dm.N())
	for i := range compOf {
		compOf[i] = -1
	}
	nComp := 0
	for q := 0; q < dm.N(); q++ {
		if compOf[q] >= 0 {
			continue
		}
		for r := 0; r < dm.N(); r++ {
			if dm.Between(q, r) >= 0 {
				compOf[r] = nComp
			}
		}
		nComp++
	}
	sizes := make([]int, nComp)
	for _, c := range compOf {
		sizes[c]++
	}
	largest := 0
	for _, s := range sizes {
		if s > largest {
			largest = s
		}
	}
	// Size of the largest connected logical component.
	visited := make([]bool, p.Qubits)
	for q := 0; q < p.Qubits; q++ {
		if visited[q] {
			continue
		}
		stack := []int{q}
		visited[q] = true
		size := 0
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			for _, nb := range p.Neighbors(v) {
				if !visited[nb] {
					visited[nb] = true
					stack = append(stack, nb)
				}
			}
		}
		if size > largest {
			return fmt.Errorf("mapper: program couples %d qubits but the architecture's largest connected component has only %d", size, largest)
		}
	}
	return nil
}

// reversed returns the gates of c in reverse order (structure only; used
// for mapping refinement where gate semantics are irrelevant).
func reversed(c *circuit.Circuit) *circuit.Circuit {
	out := circuit.New(c.Name+"-reversed", c.Qubits)
	for i := len(c.Gates) - 1; i >= 0; i-- {
		out.Gates = append(out.Gates, c.Gates[i])
	}
	return out
}

// router holds what the routing passes of one Map call share: the coupling
// graph, the options, and scratch buffers reused across decisions and
// passes, so the routing loop does not allocate per decision.
type router struct {
	arch  string // architecture name, for panic messages
	dm    *Distances
	opt   Options
	edges []arch.Edge // sorted by (A, B)
	adj   [][]int

	decay []float64
	exec  []int
	// frontCX and extended are the blocked front's CX gates and the
	// look-ahead set as flat logical pairs (q0, q1, q0, q1, ...).
	frontCX, extended []int
	queue             []int
	cands             []arch.Edge
	// gateSeen[g] == gen (physSeen[p] == gen) marks gate g (physical qubit
	// p) as visited by the current search; bumping gen clears both.
	gateSeen, physSeen []int
	gen                int
}

func newRouter(c *circuit.Circuit, a *arch.Architecture, dm *Distances, opt Options) *router {
	return &router{
		arch:     a.Name,
		dm:       dm,
		opt:      opt,
		edges:    a.Edges(),
		adj:      a.AdjList(),
		decay:    make([]float64, a.NumQubits()),
		gateSeen: make([]int, len(c.Gates)),
		physSeen: make([]int, a.NumQubits()),
	}
}

// route executes the SABRE routing loop over the circuit of dag from
// mapping m, mutating it in place into the final mapping, and returns the
// number of SWAPs inserted. The physical circuit is appended to out
// unless out is nil.
func (r *router) route(dag *circuit.DAG, m *Mapping, out *circuit.Circuit) int {
	c := dag.Circuit()
	front := dag.NewFront()
	r.resetDecay()
	swaps, sinceReset := 0, 0
	// stall counts SWAPs inserted since the last gate execution. If the
	// heuristic oscillates (possible on adversarial inputs), forceProgress
	// routes one blocked gate deterministically along a shortest path,
	// which guarantees termination.
	stall := 0
	maxStall := 4 * (r.dm.N() + 4)
	// SWAPs never change the front, so frontCX and extended are rebuilt
	// only after it advances.
	stale := true

	for !front.Done() {
		// Execute everything executable in the current front.
		r.exec = r.exec[:0]
		for _, gi := range front.Ready() {
			g := &c.Gates[gi]
			if g.Kind != circuit.CX || r.dm.Between(m.L2P[g.Qubits[0]], m.L2P[g.Qubits[1]]) == 1 {
				r.exec = append(r.exec, gi)
			}
		}
		if len(r.exec) > 0 {
			if out != nil {
				for _, gi := range r.exec {
					emit(out, c.Gates[gi], m)
				}
			}
			front.Resolve(r.exec...)
			stale = true
			r.resetDecay()
			sinceReset = 0
			stall = 0
			continue
		}

		// Blocked: every front gate is a CX on a non-coupled pair.
		if stale {
			r.frontCX = r.frontCX[:0]
			for _, gi := range front.Ready() {
				r.frontCX = append(r.frontCX, c.Gates[gi].Qubits...)
			}
			r.extendedSet(dag, front)
			stale = false
		}
		if stall >= maxStall {
			swaps += r.forceProgress(out, m, r.frontCX[0], r.frontCX[1])
			stall = 0
			continue
		}
		cands := r.candidateSwaps(m)
		if len(cands) == 0 {
			// No swap touches a front qubit: disconnected placement.
			// This cannot happen on connected coupling graphs; fail loudly.
			panic(fmt.Sprintf("mapper: no candidate swaps for %q on %q", c.Name, r.arch))
		}
		best, bestScore := cands[0], 0.0
		for i, sw := range cands {
			s := r.swapScore(sw, m)
			if i == 0 || s < bestScore {
				best, bestScore = sw, s
			}
		}
		m.Swap(best.A, best.B)
		if out != nil {
			emitSwap(out, best.A, best.B)
		}
		swaps++
		r.decay[best.A] += r.opt.DecayDelta
		r.decay[best.B] += r.opt.DecayDelta
		sinceReset++
		stall++
		if r.opt.DecayReset > 0 && sinceReset >= r.opt.DecayReset {
			r.resetDecay()
			sinceReset = 0
		}
	}
	return swaps
}

func (r *router) resetDecay() {
	for i := range r.decay {
		r.decay[i] = 1
	}
}

// forceProgress moves the physical qubit of logical qubit lc along a
// shortest path toward that of lt until the pair is coupled, emitting the
// SWAPs unless out is nil, and returns the number inserted. It is the
// deterministic termination fallback for heuristic oscillation.
func (r *router) forceProgress(out *circuit.Circuit, m *Mapping, lc, lt int) int {
	inserted := 0
	for {
		pc, pt := m.L2P[lc], m.L2P[lt]
		d := r.dm.Between(pc, pt)
		if d <= 1 {
			return inserted
		}
		next := -1
		for _, nb := range r.adj[pc] { // ascending ⇒ deterministic
			if r.dm.Between(nb, pt) == d-1 {
				next = nb
				break
			}
		}
		if next < 0 {
			panic(fmt.Sprintf("mapper: no shortest-path step from %d to %d", pc, pt))
		}
		m.Swap(pc, next)
		if out != nil {
			emitSwap(out, pc, next)
		}
		inserted++
	}
}

// emit appends gate g rewritten onto physical qubits.
func emit(out *circuit.Circuit, g circuit.Gate, m *Mapping) {
	ng := g
	ng.Qubits = make([]int, len(g.Qubits))
	for i, q := range g.Qubits {
		ng.Qubits[i] = m.L2P[q]
	}
	if g.Params != nil {
		ng.Params = append([]float64(nil), g.Params...)
	}
	out.Append(ng)
}

// emitSwap appends a SWAP on physical qubits p1, p2 as its 3-CX expansion,
// keeping the output in the hardware basis.
func emitSwap(out *circuit.Circuit, p1, p2 int) {
	out.CX(p1, p2).CX(p2, p1).CX(p1, p2)
}

// extendedSet fills r.extended with the pairs of up to ExtendedSize CX
// gates reachable from the front in the DAG (breadth-first over
// successors), the look-ahead window of the SABRE heuristic.
func (r *router) extendedSet(dag *circuit.DAG, front *circuit.Front) {
	r.extended = r.extended[:0]
	size := r.opt.ExtendedSize
	if size <= 0 {
		return
	}
	r.gen++
	queue := append(r.queue[:0], front.Ready()...)
	for _, gi := range queue {
		r.gateSeen[gi] = r.gen
	}
	gates := dag.Circuit().Gates
	n := 0
	for head := 0; head < len(queue) && n < size; head++ {
		for _, s := range dag.Successors(queue[head]) {
			if r.gateSeen[s] == r.gen {
				continue
			}
			r.gateSeen[s] = r.gen
			if g := &gates[s]; g.Kind == circuit.CX {
				r.extended = append(r.extended, g.Qubits...)
				n++
				if n >= size {
					break
				}
			}
			queue = append(queue, s)
		}
	}
	r.queue = queue
}

// candidateSwaps returns the coupling edges that touch at least one
// physical qubit occupied by a logical qubit of a blocked front CX, in
// (A, B) order. The slice is reused by the next call.
func (r *router) candidateSwaps(m *Mapping) []arch.Edge {
	r.gen++
	for _, l := range r.frontCX {
		r.physSeen[m.L2P[l]] = r.gen
	}
	r.cands = r.cands[:0]
	for _, e := range r.edges {
		if r.physSeen[e.A] == r.gen || r.physSeen[e.B] == r.gen {
			r.cands = append(r.cands, e)
		}
	}
	return r.cands
}

// swapScore evaluates the SABRE heuristic for applying sw to mapping m:
//
//	H = max(decay) · [ (1/|F|)·Σ_F dist' + W·(1/|E|)·Σ_E dist' ]
//
// where dist' is the post-swap coupling distance between the physical
// qubits of each gate's logical pair.
func (r *router) swapScore(sw arch.Edge, m *Mapping) float64 {
	score := r.meanDistance(r.frontCX, sw, m) + r.opt.ExtendedWeight*r.meanDistance(r.extended, sw, m)
	d := r.decay[sw.A]
	if r.decay[sw.B] > d {
		d = r.decay[sw.B]
	}
	return d * score
}

// meanDistance is the mean post-swap coupling distance over the flat
// logical pairs; 0 when there are none.
func (r *router) meanDistance(pairs []int, sw arch.Edge, m *Mapping) float64 {
	if len(pairs) == 0 {
		return 0
	}
	t := 0
	for i := 0; i < len(pairs); i += 2 {
		t += r.dm.Between(swapped(m.L2P[pairs[i]], sw), swapped(m.L2P[pairs[i+1]], sw))
	}
	return float64(t) / float64(len(pairs)/2)
}

// swapped returns where physical qubit p's occupant sits after sw.
func swapped(p int, sw arch.Edge) int {
	switch p {
	case sw.A:
		return sw.B
	case sw.B:
		return sw.A
	}
	return p
}
