package circuit

// DAG is the gate dependency graph of a circuit. Gate i depends on gate j
// (j < i) when they share a qubit and no gate between them acts on that
// qubit; this is the structure the SABRE-style mapper walks front-layer by
// front-layer.
//
// Barriers induce dependencies across every qubit they mention, so a
// full-width barrier fully serialises the two circuit halves.
type DAG struct {
	circ *Circuit
	// succ[i] lists the gate indices that directly depend on gate i.
	succ [][]int
	// npred[i] is the number of direct predecessors of gate i.
	npred []int
}

// NewDAG builds the dependency DAG of c in O(total gate arity).
func NewDAG(c *Circuit) *DAG {
	d := &DAG{
		circ:  c,
		succ:  make([][]int, len(c.Gates)),
		npred: make([]int, len(c.Gates)),
	}
	// last[q] is the most recent gate index acting on qubit q.
	last := make([]int, c.Qubits)
	for i := range last {
		last[i] = -1
	}
	for i, g := range c.Gates {
		qs := g.Qubits
		if g.Kind == Barrier && len(qs) == 0 {
			// An empty barrier spans all qubits.
			qs = make([]int, c.Qubits)
			for q := range qs {
				qs[q] = q
			}
		}
		seenPred := map[int]bool{}
		for _, q := range qs {
			if p := last[q]; p >= 0 && !seenPred[p] {
				seenPred[p] = true
				d.succ[p] = append(d.succ[p], i)
				d.npred[i]++
			}
			last[q] = i
		}
	}
	return d
}

// Circuit returns the circuit the DAG was built from.
func (d *DAG) Circuit() *Circuit { return d.circ }

// Len returns the number of gates.
func (d *DAG) Len() int { return len(d.succ) }

// Front is a mutable traversal cursor over the DAG: the set of gates whose
// predecessors have all been resolved. The mapper resolves executable gates
// and asks for the new front until the circuit is exhausted.
type Front struct {
	dag     *DAG
	pending []int // remaining-predecessor counts
	ready   []int // current front, ascending gate index
	spare   []int // the next front is built here, then swapped with ready
	done    int
	// mark[g] == stamp marks gate g as in the front and stamp+1 as being
	// resolved; Resolve advances stamp by 2, so no clearing is needed.
	mark  []int
	stamp int
}

// NewFront returns a cursor positioned at the initial front layer.
func (d *DAG) NewFront() *Front {
	f := &Front{
		dag:     d,
		pending: append([]int(nil), d.npred...),
		mark:    make([]int, len(d.succ)),
	}
	for i := range d.succ {
		if f.pending[i] == 0 {
			f.ready = append(f.ready, i)
		}
	}
	return f
}

// Ready returns the current front layer as ascending gate indices. The
// returned slice is owned by the Front and only valid until Resolve.
func (f *Front) Ready() []int { return f.ready }

// Done reports whether every gate has been resolved.
func (f *Front) Done() bool { return f.done == f.dag.Len() }

// Resolve marks the given front gates as executed and advances the front.
// Each index must currently be in Ready; Resolve panics otherwise, because
// resolving a non-ready gate is a mapper bug that would silently corrupt
// the schedule.
func (f *Front) Resolve(gates ...int) {
	f.stamp += 2
	inReady, toRemove := f.stamp, f.stamp+1
	for _, g := range f.ready {
		f.mark[g] = inReady
	}
	for _, g := range gates {
		switch f.mark[g] {
		case inReady:
			f.mark[g] = toRemove
		case toRemove:
			panic("circuit: duplicate gate in Resolve")
		default:
			panic("circuit: Resolve of gate not in front layer")
		}
	}
	// gates may alias ready, so the next front goes into the spare buffer.
	next := f.spare[:0]
	for _, g := range f.ready {
		if f.mark[g] != toRemove {
			next = append(next, g)
		}
	}
	for _, g := range gates {
		f.done++
		for _, s := range f.dag.succ[g] {
			f.pending[s]--
			if f.pending[s] == 0 {
				next = insertSorted(next, s)
			}
		}
	}
	f.ready, f.spare = next, f.ready
}

// insertSorted inserts v into ascending slice s, preserving order.
func insertSorted(s []int, v int) []int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s = append(s, 0)
	copy(s[lo+1:], s[lo:])
	s[lo] = v
	return s
}

// Successors returns the direct successors of gate i (ascending).
func (d *DAG) Successors(i int) []int { return d.succ[i] }

// Layers partitions the gate indices into as-soon-as-possible layers: layer
// k contains the gates whose longest dependency chain has length k. Used by
// tests and by the depth statistic.
func (d *DAG) Layers() [][]int {
	depth := make([]int, d.Len())
	var layers [][]int
	f := d.NewFront()
	for !f.Done() {
		ready := append([]int(nil), f.Ready()...)
		for _, g := range ready {
			dep := depth[g]
			for len(layers) <= dep {
				layers = append(layers, nil)
			}
			layers[dep] = append(layers[dep], g)
			for _, s := range d.succ[g] {
				if depth[s] < dep+1 {
					depth[s] = dep + 1
				}
			}
		}
		f.Resolve(ready...)
	}
	return layers
}

// Depth returns the number of ASAP layers (circuit depth over all gates).
func (d *DAG) Depth() int { return len(d.Layers()) }
