package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"qproc/internal/core"
	"qproc/internal/gen"
	"qproc/internal/search"
)

// The constants below were captured from the pre-topology-refactor tree
// (square-lattice-only code paths) and pin the refactor's bit-identity
// contract: the square family must produce byte-identical architectures,
// identical job fingerprints for legacy specs, and identical sweep and
// search results.

func goldenSHA(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// TestGoldenJobKeys pins the content addresses of legacy (topology-free)
// specs: stored runs from before the refactor must still be found.
func TestGoldenJobKeys(t *testing.T) {
	opt := QuickOptions()
	sweepSpec := SweepSpec{
		Benchmarks: []string{"sym6_145"},
		Configs:    []core.Config{core.ConfigIBM, core.ConfigEffFull},
		Sigmas:     []float64{0.03},
	}
	searchSpec := SearchSpec{
		Benchmark: "sym6_145",
		Strategy:  "anneal",
		MaxEvals:  4,
		Steps:     40,
		Proposals: 4,
	}
	cases := []struct {
		name string
		job  Job
		want string
	}{
		{"sweep", SweepJob{Spec: sweepSpec}, "d2d83bdfd957c9963ec48b8d93acb761c343aed041c6aa796a4728ab8e5db727"},
		{"search", SearchJob{Spec: searchSpec}, "95fdff811045b7b39b50e9d809a0fa32812be5da6a55902786b11ce2a9c51cb1"},
		{"sweep-default", SweepJob{}, "9a590575bc1c6a3114319630d93c04ad6990a9398d1f504a58d1b63d185898af"},
		{"portfolio", PortfolioJob{Spec: PortfolioSpec{SearchSpec: searchSpec}}, "5473c9143043b5ca5a9097aa9dd1f57bc7036a0b7b37940f243f12cb3e505b28"},
		{"portfolio-1-lane", PortfolioJob{Spec: PortfolioSpec{SearchSpec: searchSpec, Lanes: 1}}, "1375979bea19b1c0be49d8b142dac69ec19dc8ae5950d43f3b06048362240f75"},
		{"portfolio-exchange", PortfolioJob{Spec: PortfolioSpec{SearchSpec: searchSpec, Lanes: 3, ExchangeEvery: 10}}, "e0713f0c12dbb1bb6a4b89058efba3eece791219accf42c2212a8be07055591e"},
	}
	for _, c := range cases {
		got, err := JobKey(c.job, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("JobKey(%s) = %s, want %s", c.name, got, c.want)
		}
	}

	// Spelling the square family out is the same work as omitting it.
	sq := sweepSpec
	sq.Topology = "square"
	if got, err := JobKey(SweepJob{Spec: sq}, opt); err != nil || got != cases[0].want {
		t.Errorf("JobKey(sweep, topology=square) = %s (%v), want %s", got, err, cases[0].want)
	}
	sqs := searchSpec
	sqs.Topology = "square"
	if got, err := JobKey(SearchJob{Spec: sqs}, opt); err != nil || got != cases[1].want {
		t.Errorf("JobKey(search, topology=square) = %s (%v), want %s", got, err, cases[1].want)
	}
	// Spelling the default lane count out is the same work as omitting it.
	dl := PortfolioSpec{SearchSpec: searchSpec, Lanes: search.DefaultLanes}
	if got, err := JobKey(PortfolioJob{Spec: dl}, opt); err != nil || got != cases[3].want {
		t.Errorf("JobKey(portfolio, lanes=%d) = %s (%v), want %s", search.DefaultLanes, got, err, cases[3].want)
	}
	// A non-square family is different work and must not collide.
	ch := searchSpec
	ch.Topology = "chimera(2,2,4)"
	if got, err := JobKey(SearchJob{Spec: ch}, opt); err != nil || got == cases[1].want {
		t.Errorf("JobKey(search, topology=chimera) = %s (%v), want a distinct key", got, err)
	}
}

// TestGoldenArchSeries pins the serialised architectures of the
// eff-full and eff-5-freq series byte-for-byte (via JSON hash): layout,
// bus application order, frequency allocation and JSON encoding must
// all be unchanged for the square family.
func TestGoldenArchSeries(t *testing.T) {
	want := map[string][]string{
		"eff-full/aux=0": {
			"e8037531557425c745050f9e8d61e2fc86375bcc37d2a285a8d956f4bc416521",
			"653c887e6500aa1e4f135420551d616ef869946f08d59697beff53f2c7b358f7",
			"b5eff6966e94ef54f443b20107995d557fb6396248a2a1ab5187326c8e99579b",
		},
		"eff-full/aux=1": {
			"6f0b43f194c87cf2e71bc9290c466b3fb02ec2612f5f8e115aad3004a085e2f9",
			"f07d34d892ceb5ffbae66fe53bc0852a2504a4f11fffaab47064e03bc6f9e192",
			"2007f946bad9de8d7c7291c8b95c7b66eb8395bff2c4d9597f79c6c7743d4f65",
		},
		"eff-5-freq/aux=0": {
			"40b770a630186def91520804ebbb5f6dcde3853bc5b082dd30bc8e25df73baf4",
			"a20bb1e3d31dd692b90143ce3caa761177259f054710eb83115e8aa6bccaa9b0",
			"be8e16bfdcf70671c2e91735c2e17807d6e6854ac12b7dc8ad10eecf8094b36b",
		},
	}
	b, err := gen.Get("sym6_145")
	if err != nil {
		t.Fatal(err)
	}
	c := b.Build()
	for _, tc := range []struct {
		cfg core.Config
		aux int
	}{{core.ConfigEffFull, 0}, {core.ConfigEffFull, 1}, {core.ConfigEff5Freq, 0}} {
		flow := core.NewFlow(1)
		flow.FreqLocalTrials = 300
		ds, err := flow.SeriesConfig(c, tc.cfg, -1, tc.aux, 1)
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("%s/aux=%d", tc.cfg, tc.aux)
		if len(ds) != len(want[key]) {
			t.Fatalf("%s: %d designs, want %d", key, len(ds), len(want[key]))
		}
		for i, d := range ds {
			if got := goldenSHA(t, d.Arch); got != want[key][i] {
				t.Errorf("%s k=%d: arch hash %s, want %s", key, i, got, want[key][i])
			}
		}
	}
}

// TestGoldenSearchOutcomes pins the guided search end-to-end on the
// square family: yields, analytic scores and the winning architectures
// are bit-identical to the pre-refactor engine.
func TestGoldenSearchOutcomes(t *testing.T) {
	if testing.Short() {
		t.Skip("full search runs in -short mode")
	}
	r := NewRunner(QuickOptions())
	cases := []struct {
		spec                  SearchSpec
		yield, expected, arch string
	}{
		{
			SearchSpec{Benchmark: "sym6_145", Strategy: "anneal", MaxEvals: 4, Steps: 40, Proposals: 4},
			"0.3795", "1.002793192",
			"89093e5555891e055155cbab9cc93365cae43f932470a3b140157729b822fe3e",
		},
		{
			SearchSpec{Benchmark: "sym6_145", Strategy: "beam", MaxEvals: 4, BeamWidth: 4, Depth: 3},
			"0.385", "1.000137428",
			"7eb09f3b0a41e6ddaf8dfcaa1a0517a756219967f0545ea0c37973936a1039c7",
		},
	}
	for _, c := range cases {
		out, err := r.Search(context.Background(), c.spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%.10g", out.Best.Yield); got != c.yield {
			t.Errorf("%s: yield %s, want %s", c.spec.Strategy, got, c.yield)
		}
		if got := fmt.Sprintf("%.10g", out.Expected); got != c.expected {
			t.Errorf("%s: expected %s, want %s", c.spec.Strategy, got, c.expected)
		}
		if got := goldenSHA(t, out.Arch); got != c.arch {
			t.Errorf("%s: arch hash %s, want %s", c.spec.Strategy, got, c.arch)
		}
	}
}

// TestGoldenSweepPoints pins a small sweep's yields and gate counts,
// and checks that spelling the topology as "square" changes nothing.
func TestGoldenSweepPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep runs in -short mode")
	}
	want := []struct {
		label, yield string
		gates        int
	}{
		{"k=0", "0.3445", 310},
		{"k=1", "0.1995", 280},
		{"k=2", "0.152", 283},
	}
	for _, topo := range []string{"", "square"} {
		r := NewRunner(QuickOptions())
		sw, err := r.Sweep(context.Background(), SweepSpec{
			Benchmarks: []string{"sym6_145"},
			Configs:    []core.Config{core.ConfigEffFull},
			Topology:   topo,
			Sigmas:     []float64{0.03},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(sw.Points) != len(want) {
			t.Fatalf("topology=%q: %d points, want %d", topo, len(sw.Points), len(want))
		}
		for i, p := range sw.Points {
			if p.Label != want[i].label || fmt.Sprintf("%.10g", p.Yield) != want[i].yield || p.GateCount != want[i].gates {
				t.Errorf("topology=%q point %d: %s yield=%.10g gates=%d, want %s yield=%s gates=%d",
					topo, i, p.Label, p.Yield, p.GateCount, want[i].label, want[i].yield, want[i].gates)
			}
		}
	}
}

// TestGoldenJobOutcomeBytes pins whole search and portfolio jobs byte
// for byte: the SHA-256 of each outcome's WriteJSON encoding and of its
// progress-event stream (one JSON line per event). The field-level
// goldens above would not notice a field appearing in every outcome,
// nor a changed event cadence; stored runs and streamed events are
// served to clients as these bytes.
func TestGoldenJobOutcomeBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("full search runs in -short mode")
	}
	anneal := SearchSpec{Benchmark: "sym6_145", Strategy: "anneal", MaxEvals: 4, Steps: 40, Proposals: 4}
	beam := SearchSpec{Benchmark: "sym6_145", Strategy: "beam", MaxEvals: 4, BeamWidth: 4, Depth: 3}
	wideBeam := SearchSpec{Benchmark: "sym6_145", Strategy: "beam", MaxEvals: 9, BeamWidth: 4, Depth: 6}
	coupler := SearchSpec{Benchmark: "sym6_145", Strategy: "anneal", Topology: "coupler", MaxEvals: 4, Steps: 20, Proposals: 4}
	portfolioAnneal := anneal
	portfolioAnneal.MaxEvals = 8
	cases := []struct {
		name            string
		job             Job
		outcome, events string
	}{
		{"search-anneal", SearchJob{Spec: anneal},
			"7ab5d765b2a5476e55cf5cf40476b47f1de01e139274bde887f03f292e29524e",
			"0045e9d0911b33f617819055f3eecc313ad9aa24bcfd3e826e4aae7ee503dd77"},
		{"search-beam", SearchJob{Spec: beam},
			"e4db035ab259f798cb4326b00f5facb2c611c807244d26076df5f4035d400d5c",
			"3a8d3bb16465318368a0ad3c4caa5c7e3b9482795157f39ecc2cd6d2241d656e"},
		{"search-coupler", SearchJob{Spec: coupler},
			"0032ccfcb3f77c68d650f59fd7eb7e6b6c32f6327b5a4781ce609a3ab6c5ad8f",
			"30f3f0400768ff253a34edd7acdef74db65ffddecc3d4b9da77682fb5316eaa7"},
		{"portfolio-4-anneal", PortfolioJob{Spec: PortfolioSpec{SearchSpec: portfolioAnneal, Lanes: 4}},
			"6c5ccf7b9ae95e683a40383dbbab598b593e5941f0adb7545363ce597d320edc",
			"f9b41dacaa531515ffa920a712aada53be649ae962902ef6286cddf017b49083"},
		{"portfolio-1-anneal", PortfolioJob{Spec: PortfolioSpec{SearchSpec: anneal, Lanes: 1}},
			"226c254b5516c71b72d8857cbd5609495212fa6ccf2315e4d9c538cc1432c25a",
			"7b5b025f5a5431108f1ec2ec0850218928eddb16eeef7c2e289a0f250591516a"},
		{"portfolio-1-beam", PortfolioJob{Spec: PortfolioSpec{SearchSpec: beam, Lanes: 1}},
			"f472942d48ae7ab5b96839957677b0ed3b4cf34f24d00293a20c3b7fcef338f5",
			"ebf7a4b85055452d12497814a4e2b15110775420c8a0aac4b4c537c924a97766"},
		{"portfolio-3-beam-exchange-2", PortfolioJob{Spec: PortfolioSpec{SearchSpec: wideBeam, Lanes: 3, ExchangeEvery: 2}},
			"5c5713fefb639f408e407c93e9faa61485c27f3ae4eda2cfa48412224db924d8",
			"d3c0270ac60a87984d87c1b0c5fd6b56caba4fe433eeb961014ff84255524d46"},
		{"portfolio-2-coupler", PortfolioJob{Spec: PortfolioSpec{SearchSpec: coupler, Lanes: 2}},
			"bfe1ea96edf13441f668cd0f3cbeacff4e084f5a0c84ecea098640f09120b134",
			"40318666d9e3178112fc02435041beb54ff1b65b9344d067f7befa594daf52af"},
	}
	r := NewRunner(QuickOptions())
	for _, c := range cases {
		var events bytes.Buffer
		enc := json.NewEncoder(&events)
		out, err := c.job.Run(context.Background(), r, func(e Event) {
			if err := enc.Encode(e); err != nil {
				t.Error(err)
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var body bytes.Buffer
		if err := out.WriteJSON(&body); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(body.Bytes())); got != c.outcome {
			t.Errorf("%s: outcome hash %s, want %s", c.name, got, c.outcome)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(events.Bytes())); got != c.events {
			t.Errorf("%s: event-stream hash %s, want %s", c.name, got, c.events)
		}
	}
}
