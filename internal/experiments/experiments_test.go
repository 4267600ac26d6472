package experiments

import (
	"fmt"
	"strings"
	"testing"

	"qproc/internal/arch"
	"qproc/internal/core"
	"qproc/internal/gen"
	"qproc/internal/profile"
	"qproc/internal/topology"
)

// testRunner returns a runner with a small Monte-Carlo budget; all code
// paths identical to the paper-fidelity configuration.
func testRunner() *Runner {
	o := QuickOptions()
	o.YieldTrials = 1000
	o.FreqLocalTrials = 150
	return NewRunner(o)
}

func TestRunBenchmarkStructure(t *testing.T) {
	r := testRunner()
	res, err := r.RunBenchmark("sym6_145")
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "sym6_145" || res.Qubits != 7 {
		t.Fatalf("result header: %s/%d", res.Name, res.Qubits)
	}
	// All five configurations present.
	for _, cfg := range core.Configs() {
		if len(res.ByConfig(cfg)) == 0 {
			t.Errorf("no points for %v", cfg)
		}
	}
	// Four baselines for a 7-qubit program.
	ibm := res.ByConfig(core.ConfigIBM)
	if len(ibm) != 4 {
		t.Fatalf("baseline points = %d", len(ibm))
	}
	// Baseline (1) is the normalisation anchor.
	if ibm[0].NormPerf != 1.0 {
		t.Errorf("baseline (1) norm perf = %v", ibm[0].NormPerf)
	}
	for _, p := range res.Points {
		if p.GateCount <= 0 || p.Yield < 0 || p.Yield > 1 {
			t.Errorf("implausible point %+v", p)
		}
		if p.Benchmark != "sym6_145" {
			t.Errorf("point names %q", p.Benchmark)
		}
	}
}

func TestEffFullBeatsBaselineYield(t *testing.T) {
	// The headline claim on the smallest benchmark: the generated 0-bus
	// design has (much) better yield than every baseline.
	r := testRunner()
	res, err := r.RunBenchmark("sym6_145")
	if err != nil {
		t.Fatal(err)
	}
	eff := res.ByConfig(core.ConfigEffFull)
	ibm := res.ByConfig(core.ConfigIBM)
	for _, b := range ibm {
		if eff[0].Yield <= b.Yield {
			t.Errorf("eff-full k=0 yield %.4f <= %s yield %.4f", eff[0].Yield, b.Label, b.Yield)
		}
	}
}

func TestParetoFrontier(t *testing.T) {
	pts := []Point{
		{Label: "a", NormPerf: 1.0, Yield: 0.5},
		{Label: "b", NormPerf: 1.2, Yield: 0.3},
		{Label: "c", NormPerf: 1.1, Yield: 0.2}, // dominated by b
		{Label: "d", NormPerf: 0.9, Yield: 0.4}, // dominated by a
	}
	front := ParetoFrontier(pts)
	if len(front) != 2 {
		t.Fatalf("frontier = %v", front)
	}
	if front[0].Label != "a" || front[1].Label != "b" {
		t.Fatalf("frontier order = %v", front)
	}
}

func TestSummariesRender(t *testing.T) {
	r := testRunner()
	res, err := r.RunBenchmark("dc1_220")
	if err != nil {
		t.Fatal(err)
	}
	all := []*BenchmarkResult{res}
	trials := r.Options().YieldTrials
	for name, text := range map[string]string{
		"overall": FormatOverall(SummaryOverall(all, trials)),
		"layout":  FormatLayout(SummaryLayout(all, trials)),
		"freq":    FormatFreq(SummaryFreq(all, trials)),
		"bus":     FormatBus(SummaryBus(all, trials)),
		"fig10":   FormatFig10(res),
	} {
		if !strings.Contains(text, "dc1_220") {
			t.Errorf("%s summary missing the benchmark row:\n%s", name, text)
		}
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); g != 4 {
		t.Errorf("GeoMean(2,8) = %v", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Errorf("GeoMean(nil) = %v", g)
	}
	if g := GeoMean([]float64{0, -1}); g != 0 {
		t.Errorf("GeoMean(nonpositive) = %v", g)
	}
}

func TestYieldFloor(t *testing.T) {
	if f := yieldFloor(0, 10000); f != 0.5/10000 {
		t.Errorf("floor = %v", f)
	}
	if f := yieldFloor(0.5, 10000); f != 0.5 {
		t.Errorf("passthrough = %v", f)
	}
}

func TestFig4(t *testing.T) {
	s, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	// The Figure 4 coupling matrix has the signature entries 2 (q0-q4)
	// and degree list head q4: 5.
	if !strings.Contains(s, "coupling degree list") {
		t.Fatalf("missing degree list:\n%s", s)
	}
	p, err := profile.New(Fig4Circuit())
	if err != nil {
		t.Fatal(err)
	}
	if p.Strength[0][4] != 2 || p.Degrees[0].Qubit != 4 || p.Degrees[0].Degree != 5 {
		t.Fatalf("Fig4 circuit does not reproduce the paper's example: %+v", p.Degrees)
	}
}

func TestFig5(t *testing.T) {
	s, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"UCCSD_ansatz_8", "misex1_241", "chain pairs carry"} {
		if !strings.Contains(s, want) {
			t.Errorf("Fig5 output missing %q", want)
		}
	}
}

func TestFig9(t *testing.T) {
	s := Fig9()
	for _, want := range []string{"(1)", "(2)", "(3)", "(4)", "16 qubits", "20 qubits", "##"} {
		if !strings.Contains(s, want) {
			t.Errorf("Fig9 output missing %q", want)
		}
	}
}

// TestRenderDesignDrawsCouplings renders a chimera(1,2,2) design, whose
// coordinates are only a drawing embedding, and reads the drawing back:
// every "--" and "|" it draws must join two coupled qubits, and every
// coupling must be drawn or listed after the drawing.
func TestRenderDesignDrawsCouplings(t *testing.T) {
	fam, err := topology.NewChimera(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := gen.Get("sym6_145")
	f := core.NewFlow(1)
	f.Family = fam
	ds, err := f.Series(b.Build(), 0)
	if err != nil {
		t.Fatal(err)
	}
	a := ds[0].Arch
	out := RenderDesign(a)
	const header = "couplings off the lattice:"
	drawing, listed, _ := strings.Cut(out, header)
	rows := strings.Split(strings.TrimSuffix(drawing, "\n"), "\n")[1:]
	coupled := map[arch.Edge]bool{}
	for _, e := range a.Edges() {
		coupled[e] = true
	}
	shown := map[arch.Edge]bool{}
	draw := func(p, q int, where string) {
		e := arch.Edge{A: min(p, q), B: max(p, q)}
		if p < 0 || q < 0 || !coupled[e] {
			t.Errorf("%s draws %d-%d, which is not a coupling:\n%s", where, p, q, out)
		}
		shown[e] = true
	}
	// A node cell is 9 wide and followed by a 2-wide connector.
	const cell, step = 9, 11
	nodes := func(row string) []int {
		var ids []int
		for x := 0; x < len(row); x += step {
			var id int
			if _, err := fmt.Sscanf(row[x:x+cell], "q%d", &id); err != nil {
				id = -1 // an empty node
			}
			ids = append(ids, id)
		}
		return ids
	}
	var above []int
	for r, row := range rows {
		if r%2 == 1 {
			continue // an edge row, read with the node row below it
		}
		ids := nodes(row)
		for x := 0; x+1 < len(ids); x++ {
			if row[x*step+cell:x*step+step] == "--" {
				draw(ids[x], ids[x+1], fmt.Sprintf("row %d", r))
			}
		}
		if r > 0 {
			for x, id := range ids {
				if strings.Contains(rows[r-1][x*step:x*step+cell], "|") {
					draw(above[x], id, fmt.Sprintf("row %d", r-1))
				}
			}
		}
		above = ids
	}
	for _, pair := range strings.Fields(listed) {
		var p, q int
		if _, err := fmt.Sscanf(pair, "%d-%d", &p, &q); err != nil || !coupled[arch.Edge{A: p, B: q}] {
			t.Errorf("listed %q is not a coupling", pair)
		}
		shown[arch.Edge{A: p, B: q}] = true
	}
	for e := range coupled {
		if !shown[e] {
			t.Errorf("coupling %d-%d is neither drawn nor listed:\n%s", e.A, e.B, out)
		}
	}
}

func TestRunCircuitRejectsOversized(t *testing.T) {
	r := testRunner()
	if _, err := r.RunBenchmark("no_such"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestDeterministicRuns(t *testing.T) {
	r1 := testRunner()
	r2 := testRunner()
	a, err := r1.RunBenchmark("sym6_145")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r2.RunBenchmark("sym6_145")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Points) != len(b.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("point %d differs:\n%+v\n%+v", i, a.Points[i], b.Points[i])
		}
	}
}
