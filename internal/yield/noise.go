package yield

// NoiseMatrix is the structure-of-arrays form of a Monte-Carlo trial
// noise matrix: Col(q)[t] is trial t's frequency noise on qubit q, every
// column contiguous in the trial axis and all columns backed by one flat
// allocation. The layout is the one the batch collision kernel wants —
// an edge-major sweep walks one qubit's noise across thousands of trials,
// so the trial axis must be the contiguous one — and it is shared
// directly by every consumer: the one-shot batch estimate, the
// trial-survivor state (which no longer re-transposes per
// instantiation), and the noise cache.
//
// A NoiseMatrix is immutable after construction: callers must not write
// through Col, Cols or RowInto results. Immutability is what makes
// sharing one matrix across concurrent estimates, trial states and the
// cache safe without copies.
type NoiseMatrix struct {
	trials int
	cols   [][]float64
}

// newNoiseMatrix allocates a trials × qubits matrix backed by one flat
// slice, columns zeroed.
func newNoiseMatrix(trials, qubits int) *NoiseMatrix {
	m := &NoiseMatrix{trials: trials, cols: make([][]float64, qubits)}
	flat := make([]float64, trials*qubits)
	for q := range m.cols {
		m.cols[q] = flat[q*trials : (q+1)*trials]
	}
	return m
}

// Trials returns the number of simulated fabrications. A nil matrix has
// zero trials, so callers can treat "no noise" and "empty noise"
// uniformly (see EstimateWithNoise's zero-trials contract).
func (m *NoiseMatrix) Trials() int {
	if m == nil {
		return 0
	}
	return m.trials
}

// Qubits returns the number of qubit columns.
func (m *NoiseMatrix) Qubits() int {
	if m == nil {
		return 0
	}
	return len(m.cols)
}

// Col returns qubit q's noise across all trials. Callers must not
// mutate it.
func (m *NoiseMatrix) Col(q int) []float64 { return m.cols[q] }

// Cols returns the column slices (cols[q][t]) for kernel-level consumers
// that sweep many columns. Callers must not mutate them.
func (m *NoiseMatrix) Cols() [][]float64 {
	if m == nil {
		return nil
	}
	return m.cols
}

// At returns trial t's noise on qubit q.
func (m *NoiseMatrix) At(t, q int) float64 { return m.cols[q][t] }

// RowInto gathers trial t's noise across all qubits into dst (allocated
// when nil or too short) and returns it — the row view the scalar
// reference loop walks. The gather is strided, so batch consumers should
// read columns instead.
func (m *NoiseMatrix) RowInto(dst []float64, t int) []float64 {
	if cap(dst) < len(m.cols) {
		dst = make([]float64, len(m.cols))
	}
	dst = dst[:len(m.cols)]
	for q, col := range m.cols {
		dst[q] = col[t]
	}
	return dst
}

// Head returns a view of the first trials fabrications, sharing the
// underlying columns (no copy). Slicing columns keeps every value
// bit-identical, so an estimate over Head(n) equals an estimate over a
// freshly drawn n-trial matrix from the same seed.
func (m *NoiseMatrix) Head(trials int) *NoiseMatrix {
	if trials > m.Trials() {
		trials = m.Trials()
	}
	v := &NoiseMatrix{trials: trials, cols: make([][]float64, len(m.cols))}
	for q := range m.cols {
		v.cols[q] = m.cols[q][:trials]
	}
	return v
}

// Bytes returns the data footprint of the matrix in bytes.
func (m *NoiseMatrix) Bytes() int64 {
	return int64(m.Trials()) * int64(m.Qubits()) * 8
}
