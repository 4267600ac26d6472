// Command qyield estimates the fabrication yield of a processor design by
// Monte-Carlo simulation of IBM's frequency-collision model (§4.3.1).
//
// Usage:
//
//	qyield -baseline 1..4          # one of the IBM reference designs
//	qyield -arch design.json       # a design produced by qdesign
//	qyield -arch design.json -sigma 0.06 -trials 100000
//	qyield -baseline 2 -sigmas 0.01,0.02,0.03,0.06   # σ sensitivity table
package main

import (
	"flag"
	"fmt"
	"os"

	"qproc/internal/cliutil"
	"qproc/internal/collision"
	"qproc/internal/yield"
)

func main() {
	var (
		baseline = flag.Int("baseline", 0, "IBM baseline number (1-4)")
		file     = flag.String("arch", "", "architecture JSON file")
		sigma    = flag.Float64("sigma", yield.DefaultSigma, "fabrication noise σ in GHz")
		sigmas   = flag.String("sigmas", "", "comma-separated σ values: print a sensitivity table")
		trials   = flag.Int("trials", yield.DefaultTrials, "Monte-Carlo trials")
		seed     = flag.Int64("seed", 1, "deterministic seed")
	)
	flag.Parse()

	fatalIf(cliutil.Positive("trials", *trials))
	fatalIf(cliutil.Sigma("sigma", *sigma))
	sigmaVals, err := cliutil.ParseSigmas("sigmas", *sigmas)
	fatalIf(err)

	a, err := cliutil.LoadArch(*baseline, *file)
	fatalIf(err)
	if a.Freqs == nil {
		fatal(fmt.Errorf("architecture %q has no frequency assignment", a.Name))
	}

	sim := yield.New(*seed)
	sim.Trials = *trials

	if len(sigmaVals) > 0 {
		fmt.Printf("%s\n", a)
		fmt.Printf("%d trials per σ\n", *trials)
		fmt.Println("sigma(MHz)  yield      E[collisions]")
		for _, v := range sigmaVals {
			sim.Sigma = v
			y := sim.Estimate(a)
			e := collision.ExpectedCollisions(a.AdjList(), a.Freqs, v, collision.DefaultParams())
			fmt.Printf("%-11.0f %-10.4g %.2f\n", v*1000, y, e)
		}
		return
	}

	sim.Sigma = *sigma
	y := sim.Estimate(a)
	e := collision.ExpectedCollisions(a.AdjList(), a.Freqs, *sigma, collision.DefaultParams())
	fmt.Printf("%s\n", a)
	fmt.Printf("sigma %.0f MHz, %d trials\n", *sigma*1000, *trials)
	fmt.Printf("yield: %.4g (expected collision instances: %.2f)\n", y, e)
}

func fatalIf(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qyield:", err)
	os.Exit(1)
}
