// Command qmap routes a quantum program onto a processor architecture
// with the SABRE-style mapper and reports the post-mapping gate count —
// the paper's performance metric.
//
// Usage:
//
//	qmap -name qft_16 -baseline 1
//	qmap -qasm prog.qasm -arch design.json [-o mapped.qasm]
package main

import (
	"flag"
	"fmt"
	"os"

	"qproc/internal/cliutil"
	"qproc/internal/mapper"
	"qproc/internal/qasm"
)

func main() {
	var (
		name     = flag.String("name", "", "built-in benchmark")
		file     = flag.String("qasm", "", "OpenQASM 2.0 file")
		baseline = flag.Int("baseline", 0, "IBM baseline number (1-4)")
		archFile = flag.String("arch", "", "architecture JSON file")
		out      = flag.String("o", "", "write the mapped physical circuit as QASM")
	)
	flag.Parse()

	c, err := cliutil.LoadCircuit(*name, *file)
	if err != nil {
		fatal(err)
	}
	c = c.Decompose()
	a, err := cliutil.LoadArch(*baseline, *archFile)
	if err != nil {
		fatal(err)
	}

	res, err := mapper.Map(c, a, mapper.DefaultOptions())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s onto %s\n", c.Name, a.Name)
	fmt.Printf("original gates: %d\n", c.GateCount())
	fmt.Printf("inserted SWAPs: %d (3 CX each)\n", res.Swaps)
	fmt.Printf("post-mapping gates: %d\n", res.GateCount)
	fmt.Printf("initial mapping (logical->physical): %v\n", res.Initial)
	fmt.Printf("final mapping   (logical->physical): %v\n", res.Final)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := qasm.Write(f, res.Mapped); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qmap:", err)
	os.Exit(1)
}
