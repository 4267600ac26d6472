package core

import (
	"testing"

	"qproc/internal/gen"
	"qproc/internal/mapper"
	"qproc/internal/topology"
)

// TestSeriesWithAux exercises SeriesConfig's Section 6 auxiliary qubits:
// the generated architectures carry extra physical qubits, all programs
// still map, and the extra routing freedom never hurts the gate count.
func TestSeriesWithAux(t *testing.T) {
	b, err := gen.Get("dc1_220")
	if err != nil {
		t.Fatal(err)
	}
	c := b.Build()
	f := quickFlow()

	plain, err := f.SeriesConfig(c, ConfigEffFull, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	withAux, err := f.SeriesConfig(c, ConfigEffFull, 0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plain[0].Arch.NumQubits() != c.Qubits {
		t.Fatalf("plain design has %d qubits", plain[0].Arch.NumQubits())
	}
	if got := withAux[0].Arch.NumQubits(); got != c.Qubits+2 {
		t.Fatalf("aux design has %d qubits, want %d", got, c.Qubits+2)
	}
	if withAux[0].AuxQubits != 2 {
		t.Fatalf("AuxQubits = %d", withAux[0].AuxQubits)
	}
	if err := withAux[0].Arch.Validate(); err != nil {
		t.Fatal(err)
	}
	// More hardware: strictly more connections.
	if withAux[0].Arch.NumConnections() <= plain[0].Arch.NumConnections() {
		t.Fatal("aux qubits added no connections")
	}

	// The program still maps, and aux routing freedom does not increase
	// the gate count.
	rPlain, err := mapper.Map(c, plain[0].Arch, mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rAux, err := mapper.Map(c, withAux[0].Arch, mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rAux.GateCount > rPlain.GateCount+30 {
		t.Fatalf("aux architecture maps much worse: %d vs %d", rAux.GateCount, rPlain.GateCount)
	}
}

func TestSeriesWithAuxRejectsNegative(t *testing.T) {
	b, _ := gen.Get("sym6_145")
	if _, err := quickFlow().SeriesConfig(b.Build(), ConfigEffFull, 0, -1, 0); err == nil {
		t.Fatal("negative aux count accepted")
	}
}

func TestSeriesWithAuxZeroMatchesSeries(t *testing.T) {
	b, _ := gen.Get("sym6_145")
	c := b.Build()
	f := quickFlow()
	s1, err := f.Series(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := f.SeriesConfig(c, ConfigEffFull, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != len(s2) {
		t.Fatalf("lengths differ: %d vs %d", len(s1), len(s2))
	}
	for k := range s1 {
		e1, e2 := s1[k].Arch.Edges(), s2[k].Arch.Edges()
		if len(e1) != len(e2) {
			t.Fatalf("k=%d: edge counts differ", k)
		}
		for i := range e1 {
			if e1[i] != e2[i] {
				t.Fatalf("k=%d: edges differ at %d", k, i)
			}
		}
	}
}

// TestConfigSupports pins which configurations take auxiliary qubits or a
// non-square family, only eff-full and eff-5-freq, and that SeriesConfig
// refuses the others.
func TestConfigSupports(t *testing.T) {
	chimera, err := topology.Parse("chimera")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range Configs() {
		series := cfg == ConfigEffFull || cfg == ConfigEff5Freq
		if !cfg.Supports(nil, 0) || !cfg.Supports(topology.Square{}, 0) {
			t.Errorf("%s does not support the square family at aux 0", cfg)
		}
		if got := cfg.Supports(nil, 1); got != series {
			t.Errorf("%s supports aux 1: %v, want %v", cfg, got, series)
		}
		if got := cfg.Supports(chimera, 0); got != series {
			t.Errorf("%s supports %s: %v, want %v", cfg, chimera.Name(), got, series)
		}
	}
	b, err := gen.Get("sym6_145")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := quickFlow().SeriesConfig(b.Build(), ConfigIBM, -1, 1, 1); err == nil {
		t.Error("SeriesConfig built IBM baselines with an auxiliary qubit")
	}
}
