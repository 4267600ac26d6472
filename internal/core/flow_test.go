package core

import (
	"strings"
	"testing"

	"qproc/internal/bus"
	"qproc/internal/gen"
	"qproc/internal/lattice"
	"qproc/internal/mapper"
	"qproc/internal/profile"
	"qproc/internal/yield"
)

// quickFlow returns a flow with a reduced Monte-Carlo budget for tests.
func quickFlow() *Flow {
	f := NewFlow(1)
	f.FreqLocalTrials = 200
	return f
}

func TestSeriesStructure(t *testing.T) {
	b, err := gen.Get("sym6_145")
	if err != nil {
		t.Fatal(err)
	}
	c := b.Build()
	designs, err := quickFlow().Series(c, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(designs) < 2 {
		t.Fatalf("series has %d designs, want >= 2", len(designs))
	}
	for k, d := range designs {
		if d.Buses != k {
			t.Errorf("design %d has Buses=%d", k, d.Buses)
		}
		if d.Config != ConfigEffFull {
			t.Errorf("design %d config = %v", k, d.Config)
		}
		if d.Arch.NumQubits() != c.Qubits {
			t.Errorf("design %d has %d physical qubits, want %d", k, d.Arch.NumQubits(), c.Qubits)
		}
		if d.Arch.Freqs == nil {
			t.Errorf("design %d missing frequencies", k)
		}
		if err := d.Arch.Validate(); err != nil {
			t.Errorf("design %d invalid: %v", k, err)
		}
		if len(d.Squares) != k {
			t.Errorf("design %d records %d squares", k, len(d.Squares))
		}
	}
	// Bus squares are prefixes of one selection order.
	last := designs[len(designs)-1].Squares
	for k, d := range designs {
		for i := 0; i < k; i++ {
			if d.Squares[i] != last[i] {
				t.Errorf("design %d square %d = %v, want %v", k, i, d.Squares[i], last[i])
			}
		}
	}
	// Connections strictly increase with every added bus.
	for k := 1; k < len(designs); k++ {
		if designs[k].Arch.NumConnections() <= designs[k-1].Arch.NumConnections() {
			t.Errorf("connections did not grow at k=%d", k)
		}
	}
}

func TestSeriesMaxBusesCap(t *testing.T) {
	b, _ := gen.Get("sym6_145")
	designs, err := quickFlow().Series(b.Build(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(designs) != 2 { // k=0 and k=1
		t.Fatalf("capped series has %d designs, want 2", len(designs))
	}
}

func TestIsingGeneratesSingleDesign(t *testing.T) {
	// §5.3.1: the chain benchmark admits no beneficial 4-qubit bus, so
	// the flow generates exactly one architecture.
	c := gen.Ising(16, 10).Decompose()
	designs, err := quickFlow().Series(c, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(designs) != 1 || designs[0].Buses != 0 {
		t.Fatalf("ising series = %d designs, want exactly the 0-bus design", len(designs))
	}
	// And the mapper finds a perfect initial mapping on it.
	res, err := mapper.Map(c, designs[0].Arch, mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Swaps != 0 {
		t.Errorf("ising on its own chain layout needed %d swaps", res.Swaps)
	}
}

func TestFiveFreqSeriesSharesTopology(t *testing.T) {
	b, _ := gen.Get("dc1_220")
	c := b.Build()
	f := quickFlow()
	full, err := f.Series(c, -1)
	if err != nil {
		t.Fatal(err)
	}
	five, err := f.SeriesConfig(c, ConfigEff5Freq, -1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != len(five) {
		t.Fatalf("series lengths differ: %d vs %d", len(full), len(five))
	}
	for k := range full {
		ef, e5 := full[k].Arch.Edges(), five[k].Arch.Edges()
		if len(ef) != len(e5) {
			t.Fatalf("k=%d: edge counts differ", k)
		}
		for i := range ef {
			if ef[i] != e5[i] {
				t.Fatalf("k=%d: topologies differ at edge %d", k, i)
			}
		}
	}
}

func TestRandomBusSeries(t *testing.T) {
	b, _ := gen.Get("dc1_220")
	c := b.Build()
	designs, err := quickFlow().SeriesRandomBus(c, -1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(designs) == 0 {
		t.Fatal("no random designs")
	}
	for _, d := range designs {
		if d.Config != ConfigEffRdBus {
			t.Errorf("config = %v", d.Config)
		}
		if d.Buses < 1 {
			t.Errorf("random design with %d buses", d.Buses)
		}
		if err := d.Arch.Validate(); err != nil {
			t.Errorf("invalid random design: %v", err)
		}
	}
}

func TestLayoutOnly(t *testing.T) {
	b, _ := gen.Get("sym6_145")
	c := b.Build()
	designs, err := quickFlow().LayoutOnly(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(designs) != 2 {
		t.Fatalf("layout-only produced %d designs, want 2", len(designs))
	}
	if designs[0].Buses != 0 {
		t.Errorf("first design has %d buses", designs[0].Buses)
	}
	if designs[1].Buses == 0 {
		t.Errorf("second design should be the maximal-bus variant")
	}
	// 5-frequency scheme: every frequency is one of the five values.
	for _, d := range designs {
		for q, f := range d.Arch.Freqs {
			found := false
			for i := 0; i < 5; i++ {
				if f == 5.00+0.0675*float64(i) {
					found = true
				}
			}
			if !found {
				t.Errorf("design %d qubit %d frequency %.4f not in the 5-freq scheme", d.Buses, q, f)
			}
		}
	}
}

func TestBaselinesSkipUndersized(t *testing.T) {
	f := quickFlow()
	c16 := gen.QFT(16)
	if got := len(f.Baselines(c16)); got != 4 {
		t.Fatalf("16-qubit program sees %d baselines, want 4", got)
	}
	c17 := gen.QFT(17)
	if got := len(f.Baselines(c17)); got != 2 {
		t.Fatalf("17-qubit program sees %d baselines, want 2 (the 20Q pair)", got)
	}
	c21 := gen.QFT(21)
	if got := len(f.Baselines(c21)); got != 0 {
		t.Fatalf("21-qubit program sees %d baselines, want 0", got)
	}
}

func TestLayoutNativeSupport(t *testing.T) {
	// The generated layout must natively support the strongest logical
	// pair of each benchmark (placed adjacent by Algorithm 1).
	for _, name := range []string{"UCCSD_ansatz_8", "misex1_241", "rd84_142"} {
		b, _ := gen.Get(name)
		c := b.Build()
		f := quickFlow()
		p, err := f.Profile(c)
		if err != nil {
			t.Fatal(err)
		}
		a, err := f.Layout(p, name)
		if err != nil {
			t.Fatal(err)
		}
		bestI, bestJ, bestW := -1, -1, 0
		for i := 0; i < p.Qubits; i++ {
			for j := i + 1; j < p.Qubits; j++ {
				if p.Strength[i][j] > bestW {
					bestI, bestJ, bestW = i, j, p.Strength[i][j]
				}
			}
		}
		if lattice.Manhattan(a.Coords[bestI], a.Coords[bestJ]) != 1 {
			t.Errorf("%s: strongest pair (%d,%d) not adjacent", name, bestI, bestJ)
		}
	}
}

// TestFullFlowYieldBeatsFiveFreq is the end-to-end §5.4.3 assertion on
// one benchmark at test budget.
func TestFullFlowYieldBeatsFiveFreq(t *testing.T) {
	b, _ := gen.Get("z4_268")
	c := b.Build()
	f := quickFlow()
	full, err := f.Series(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	five, err := f.SeriesConfig(c, ConfigEff5Freq, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sim := yield.New(9)
	sim.Trials = 20000
	yf := sim.Estimate(full[0].Arch)
	y5 := sim.Estimate(five[0].Arch)
	if yf <= y5 {
		t.Errorf("Algorithm 3 yield %.4f <= 5-freq scheme %.4f", yf, y5)
	}
}

func TestDesignNames(t *testing.T) {
	b, _ := gen.Get("sym6_145")
	designs, err := quickFlow().Series(b.Build(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(designs[0].Arch.Name, "sym6_145") ||
		!strings.Contains(designs[0].Arch.Name, string(ConfigEffFull)) {
		t.Errorf("design name %q lacks provenance", designs[0].Arch.Name)
	}
}

func TestSeriesMatchesDirectSubroutines(t *testing.T) {
	// The flow's layout must equal layout.Place + arch.New run manually.
	b, _ := gen.Get("dc1_220")
	c := b.Build()
	f := quickFlow()
	p, err := profile.New(c)
	if err != nil {
		t.Fatal(err)
	}
	a, err := f.Layout(p, "manual")
	if err != nil {
		t.Fatal(err)
	}
	scratch := a.Clone()
	selected, err := bus.Select(scratch, p, -1)
	if err != nil {
		t.Fatal(err)
	}
	designs, err := f.Series(c, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(designs) != len(selected)+1 {
		t.Fatalf("series length %d, selection %d", len(designs), len(selected))
	}
	for i, sq := range selected {
		if designs[len(designs)-1].Squares[i] != sq {
			t.Fatalf("square %d differs", i)
		}
	}
}
