// Package core assembles the paper's primary contribution: the end-to-end
// application-specific architecture design flow of Figure 1. Given a
// quantum program it
//
//  1. profiles the program (coupling strength matrix + degree list,
//     Section 3),
//  2. places qubits on a 2D lattice (layout design, Algorithm 1),
//  3. selects 4-qubit-bus squares in descending benefit order (bus
//     selection, Algorithm 2), and
//  4. allocates per-qubit frequencies (frequency allocation, Algorithm 3),
//
// producing a *series* of architectures — one per 4-qubit-bus count — that
// trades yield against performance in a controlled way (Section 5.3,
// "Controllability"). The experiment configurations of Section 5.2 that
// ablate individual subroutines (eff-5-freq, eff-rd-bus, eff-layout-only)
// are provided alongside the full flow.
package core

import (
	"fmt"

	"qproc/internal/arch"
	"qproc/internal/bus"
	"qproc/internal/circuit"
	"qproc/internal/freq"
	"qproc/internal/lattice"
	"qproc/internal/profile"
	"qproc/internal/topology"
)

// Config identifies one of the five experiment configurations of
// Section 5.2.
type Config string

const (
	// ConfigIBM is the general-purpose baseline: the four IBM designs.
	ConfigIBM Config = "ibm"
	// ConfigEffFull runs all three subroutines.
	ConfigEffFull Config = "eff-full"
	// ConfigEff5Freq runs layout + bus selection but frequencies the
	// designs with IBM's regular 5-frequency scheme.
	ConfigEff5Freq Config = "eff-5-freq"
	// ConfigEffRdBus runs layout + frequency allocation but selects bus
	// squares uniformly at random (prohibited condition respected).
	ConfigEffRdBus Config = "eff-rd-bus"
	// ConfigEffLayoutOnly runs layout only: 2-qubit buses or maximal
	// 4-qubit buses, 5-frequency scheme.
	ConfigEffLayoutOnly Config = "eff-layout-only"
	// ConfigSearch labels designs produced by the guided design-space
	// search (internal/search). It is not one of the paper's five sweep
	// configurations and is therefore not returned by Configs().
	ConfigSearch Config = "search"
)

// Supports reports whether the configuration designs for family f with
// aux auxiliary qubits. Only the series configurations (eff-full,
// eff-5-freq) take auxiliary qubits or a non-square family: the IBM
// baselines are fixed chips, and the bus and layout ablations are built
// on the square lattice's unit squares.
func (c Config) Supports(f topology.Family, aux int) bool {
	if aux == 0 && topology.IsSquare(f) {
		return true
	}
	return c == ConfigEffFull || c == ConfigEff5Freq
}

// Configs lists the five configurations in the paper's order.
func Configs() []Config {
	return []Config{ConfigIBM, ConfigEffFull, ConfigEffRdBus, ConfigEff5Freq, ConfigEffLayoutOnly}
}

// Flow carries the tunable parameters of the design flow.
type Flow struct {
	// Seed drives every stochastic component (frequency allocation's
	// local simulations, random bus selection) deterministically.
	Seed int64
	// FreqLocalTrials is the Monte-Carlo budget per candidate frequency
	// of Algorithm 3's freq.ScoreMC mode. The flow's allocator scores
	// analytically, so it changes no design.
	FreqLocalTrials int
	// Family selects the topology family the flow designs for; nil means
	// the paper's square lattice. Non-square families have no 4-qubit bus
	// sites, so their series stop at k = 0, and only the configurations
	// Config.Supports names design for them.
	Family topology.Family
}

// family resolves the effective topology family.
func (f *Flow) family() topology.Family {
	if f.Family == nil {
		return topology.Square{}
	}
	return f.Family
}

// NewFlow returns a Flow with the default parameters.
func NewFlow(seed int64) *Flow {
	return &Flow{Seed: seed, FreqLocalTrials: 2000}
}

// Design is one generated architecture together with its provenance.
type Design struct {
	// Arch is the finished architecture (layout, buses, frequencies).
	Arch *arch.Architecture
	// Buses is the number of multi-qubit buses applied.
	Buses int
	// Squares are the bus squares, in selection order.
	Squares []lattice.Square
	// Config records which configuration produced the design.
	Config Config
	// AuxQubits is the number of auxiliary physical qubits added beyond
	// the program's logical qubits (Section 6 extension; 0 for the
	// paper's main flow).
	AuxQubits int
}

// Allocator builds the Algorithm 3 allocator for this flow, at the
// family's frequency-interaction reach. It scores at
// collision.DefaultParams() and yield.DefaultSigma whatever σ a sweep
// evaluates at, so every allocation reads freq's process-wide table.
func (f *Flow) Allocator() *freq.Allocator {
	al := freq.NewAllocator(f.Seed)
	if f.FreqLocalTrials > 0 {
		al.LocalTrials = f.FreqLocalTrials
	}
	al.Reach = f.family().Reach()
	return al
}

// Series runs the full flow (eff-full) and returns one design per
// 4-qubit-bus count k = 0..K, where K is the number of squares
// Algorithm 2 selects before running out of beneficial squares (or
// maxBuses, if ≥ 0). Each design gets its own Algorithm 3 frequency
// allocation.
func (f *Flow) Series(c *circuit.Circuit, maxBuses int) ([]*Design, error) {
	return f.series(c, maxBuses, ConfigEffFull, 0)
}

// SeriesConfig generates the design series of any configuration through
// one entry point, the dispatch the design-space sweep engine fans out
// over. aux auxiliary physical qubits join the layout before bus
// selection and frequency allocation (the Section 6 extension: placed on
// the frontier nodes with the most occupied neighbours, they trade yield
// for routing freedom, the opposite direction to the bus knob). samples
// is only consulted by ConfigEffRdBus. A configuration that does not
// support the flow's family and aux count (Supports) is an error.
func (f *Flow) SeriesConfig(c *circuit.Circuit, cfg Config, maxBuses, aux, samples int) ([]*Design, error) {
	if aux < 0 {
		return nil, fmt.Errorf("core: negative aux qubit count %d", aux)
	}
	if !cfg.Supports(f.Family, aux) {
		return nil, fmt.Errorf("core: configuration %s takes neither auxiliary qubits nor a non-square family (aux %d, family %s)",
			cfg, aux, f.family().Name())
	}
	switch cfg {
	case ConfigIBM:
		return f.Baselines(c), nil
	case ConfigEffFull, ConfigEff5Freq:
		return f.series(c, maxBuses, cfg, aux)
	case ConfigEffRdBus:
		return f.SeriesRandomBus(c, maxBuses, samples)
	case ConfigEffLayoutOnly:
		return f.LayoutOnly(c)
	default:
		return nil, fmt.Errorf("core: unknown configuration %q", cfg)
	}
}

// BaseLayout builds the profile and the bus-free base architecture
// (2-qubit buses only, no frequencies) for the program extended with aux
// auxiliary qubits. It is the pre-bus-selection state shared by the series
// generators and the starting point the guided design-space search
// mutates.
func (f *Flow) BaseLayout(c *circuit.Circuit, aux int) (*arch.Architecture, *profile.Profile, error) {
	base, p, err := f.family().BaseLayout(c, aux)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	return base, p, nil
}

func (f *Flow) series(c *circuit.Circuit, maxBuses int, cfg Config, aux int) ([]*Design, error) {
	base, p, err := f.BaseLayout(c, aux)
	if err != nil {
		return nil, err
	}
	// Select on a scratch copy to learn the square order. Only the square
	// family has bus squares; other families stop at the k = 0 design.
	var selected []lattice.Square
	if topology.IsSquare(f.Family) {
		scratch := base.Clone()
		selected, err = bus.Select(scratch, p, maxBuses)
		if err != nil {
			return nil, fmt.Errorf("core: bus selection: %w", err)
		}
	}
	var designs []*Design
	for k := 0; k <= len(selected); k++ {
		d, err := f.finishDesign(base, selected[:k], cfg, c.Name)
		if err != nil {
			return nil, err
		}
		d.AuxQubits = aux
		designs = append(designs, d)
	}
	return designs, nil
}

// SeriesRandomBus is the eff-rd-bus ablation: for each bus count
// k = 1..max and each of sampleSeeds random draws, random eligible
// squares are selected and Algorithm 3 allocates frequencies. The samples
// reveal the yield/performance distribution random connection designs
// achieve (Section 5.4.2).
func (f *Flow) SeriesRandomBus(c *circuit.Circuit, maxBuses, samples int) ([]*Design, error) {
	if !topology.IsSquare(f.Family) {
		return nil, fmt.Errorf("core: configuration %s supports the square family only, not %s", ConfigEffRdBus, f.Family.Name())
	}
	base, _, err := f.BaseLayout(c, 0)
	if err != nil {
		return nil, err
	}
	limit := bus.MaxPossible(base)
	if maxBuses >= 0 && maxBuses < limit {
		limit = maxBuses
	}
	var designs []*Design
	for s := 0; s < samples; s++ {
		for k := 1; k <= limit; k++ {
			scratch := base.Clone()
			sel := bus.SelectRandom(scratch, k, f.Seed+int64(1000*s+k))
			d, err := f.finishDesign(base, sel, ConfigEffRdBus, c.Name)
			if err != nil {
				return nil, err
			}
			designs = append(designs, d)
		}
	}
	return designs, nil
}

// LayoutOnly is the eff-layout-only ablation: the generated layout with
// either 2-qubit buses only or maximal 4-qubit buses, frequencied with
// the 5-frequency scheme (the two data points per benchmark in Fig. 10).
func (f *Flow) LayoutOnly(c *circuit.Circuit) ([]*Design, error) {
	if !topology.IsSquare(f.Family) {
		return nil, fmt.Errorf("core: configuration %s supports the square family only, not %s", ConfigEffLayoutOnly, f.Family.Name())
	}
	base, _, err := f.BaseLayout(c, 0)
	if err != nil {
		return nil, err
	}
	var designs []*Design
	for _, maximal := range []bool{false, true} {
		a := base.Clone()
		nb := 0
		if maximal {
			nb = a.MaxMultiBuses()
		}
		a.Name = designName(c.Name, ConfigEffLayoutOnly, nb)
		if err := a.SetFrequencies(arch.FiveFreqScheme(a)); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		designs = append(designs, &Design{
			Arch:    a,
			Buses:   nb,
			Squares: a.MultiBusSquares(),
			Config:  ConfigEffLayoutOnly,
		})
	}
	return designs, nil
}

// Baselines returns the four IBM designs wrapped as Designs, skipping
// those with fewer physical qubits than the program needs.
func (f *Flow) Baselines(c *circuit.Circuit) []*Design {
	var out []*Design
	for _, b := range arch.Baselines() {
		a := arch.NewBaseline(b)
		if a.NumQubits() < c.Qubits {
			continue
		}
		out = append(out, &Design{
			Arch:    a,
			Buses:   len(a.MultiBusSquares()),
			Squares: a.MultiBusSquares(),
			Config:  ConfigIBM,
		})
	}
	return out
}

// finishDesign rebuilds the architecture from the base layout, applies
// the given bus squares, names it, and allocates frequencies per the
// configuration.
func (f *Flow) finishDesign(base *arch.Architecture, squares []lattice.Square, cfg Config, prog string) (*Design, error) {
	a := base.Clone()
	for _, sq := range squares {
		if err := a.ApplyMultiBus(sq); err != nil {
			return nil, fmt.Errorf("core: applying bus %v: %w", sq, err)
		}
	}
	a.Name = designName(prog, cfg, len(squares))
	switch cfg {
	case ConfigEff5Freq, ConfigEffLayoutOnly:
		if err := a.SetFrequencies(arch.FiveFreqScheme(a)); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	default:
		if err := a.SetFrequencies(f.Allocator().Allocate(a)); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("core: generated design invalid: %w", err)
	}
	return &Design{Arch: a, Buses: len(squares), Squares: squares, Config: cfg}, nil
}

func designName(prog string, cfg Config, buses int) string {
	if prog == "" {
		prog = "program"
	}
	return fmt.Sprintf("%s/%s-%dbus", prog, cfg, buses)
}
