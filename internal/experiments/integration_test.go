package experiments

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"qproc/internal/core"
	"qproc/internal/gen"
)

// TestIntegrationAllBenchmarks pushes every benchmark through the whole
// pipeline at a small Monte-Carlo budget and checks the cross-benchmark
// invariants the paper's evaluation rests on. Run with -short to skip.
func TestIntegrationAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	o := QuickOptions()
	o.YieldTrials = 500
	o.FreqLocalTrials = 100
	r := NewRunner(o)
	results, err := r.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 12 {
		t.Fatalf("got %d benchmark results", len(results))
	}

	// Pin Figure 10 and the §5.3/§5.4 tables: the text cmd/experiments
	// -all prints for them, and the results' JSON. Both were recorded
	// before Figure 10 moved onto the sweep path, so any drift in how the
	// reproduction's headline is computed fails here.
	var text strings.Builder
	for _, res := range results {
		text.WriteString(FormatFig10(res) + "\n")
	}
	for _, s := range []string{
		FormatOverall(SummaryOverall(results, o.YieldTrials)),
		FormatLayout(SummaryLayout(results, o.YieldTrials)),
		FormatBus(SummaryBus(results, o.YieldTrials)),
		FormatFreq(SummaryFreq(results, o.YieldTrials)),
	} {
		text.WriteString(s + "\n")
	}
	const (
		wantText = "f032c7470b47f73e685abad168c56ae6e667ab32ff8f7d40549cee26ea94aabd"
		wantJSON = "8573e0e16ee84552001da1804e6de27b036782305a68a49e49c8af2f77a1b7f0"
	)
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(text.String()))); got != wantText {
		t.Errorf("Figure 10 and summary text SHA-256 = %s, want %s", got, wantText)
	}
	if got := goldenSHA(t, results); got != wantJSON {
		t.Errorf("results JSON SHA-256 = %s, want %s", got, wantJSON)
	}
	for _, res := range results {
		ibm := res.ByConfig(core.ConfigIBM)
		full := res.ByConfig(core.ConfigEffFull)
		if len(ibm) == 0 || len(full) == 0 {
			t.Errorf("%s: missing configurations", res.Name)
			continue
		}
		// Generated designs never use more physical qubits than logical.
		for _, p := range full {
			if p.Qubits != res.Qubits {
				t.Errorf("%s: eff design has %d qubits, program %d", res.Name, p.Qubits, res.Qubits)
			}
		}
		// Normalisation anchored at baseline (1).
		if ibm[0].NormPerf != 1 {
			t.Errorf("%s: baseline (1) norm perf %v", res.Name, ibm[0].NormPerf)
		}
		// The series trades monotonically in hardware.
		for k := 1; k < len(full); k++ {
			if full[k].Connections <= full[k-1].Connections {
				t.Errorf("%s: connections not increasing at k=%d", res.Name, k)
			}
		}
	}

	// Cross-benchmark invariants.
	for _, res := range results {
		full := res.ByConfig(core.ConfigEffFull)
		switch res.Name {
		case "ising_model_16":
			// §5.3.1: single design, all configurations same gate count.
			if len(full) != 1 {
				t.Errorf("ising: %d eff-full designs, want 1", len(full))
			}
			gates := res.Points[0].GateCount
			for _, p := range res.Points {
				if p.GateCount != gates {
					t.Errorf("ising: gate count varies (%d vs %d) — should be a vertical line", p.GateCount, gates)
				}
			}
		case "qft_16":
			// Uniform pattern: the flow still produces multiple designs.
			if len(full) < 2 {
				t.Errorf("qft: only %d designs", len(full))
			}
		}
	}

	// The small benchmarks must show the headline yield win.
	bySize := map[string]*BenchmarkResult{}
	for _, res := range results {
		bySize[res.Name] = res
	}
	for _, name := range []string{"sym6_145", "UCCSD_ansatz_8", "ising_model_16"} {
		res := bySize[name]
		eff := res.ByConfig(core.ConfigEffFull)[0]
		base := res.ByConfig(core.ConfigIBM)[0]
		if eff.Yield <= base.Yield {
			t.Errorf("%s: eff yield %.4f <= baseline %.4f", name, eff.Yield, base.Yield)
		}
	}

	// Sanity on the suite inventory used above.
	if len(gen.Names()) != 12 {
		t.Fatalf("suite inventory changed: %v", gen.Names())
	}
}
