// Command qprof profiles a quantum program (Section 3): it prints the
// coupling strength matrix and the coupling degree list that drive the
// architecture design flow.
//
// Usage:
//
//	qprof -name UCCSD_ansatz_8
//	qprof -qasm circuit.qasm
package main

import (
	"flag"
	"fmt"
	"os"

	"qproc/internal/cliutil"
	"qproc/internal/profile"
)

func main() {
	var (
		name    = flag.String("name", "", "built-in benchmark to profile")
		file    = flag.String("qasm", "", "OpenQASM 2.0 file to profile")
		windows = flag.Int("windows", 0, "also print an n-window temporal profile (§6 extension)")
	)
	flag.Parse()

	if err := cliutil.NonNegative("windows", *windows); err != nil {
		fmt.Fprintln(os.Stderr, "qprof:", err)
		os.Exit(1)
	}

	c, err := cliutil.LoadCircuit(*name, *file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qprof:", err)
		os.Exit(1)
	}
	c = c.Decompose()
	p, err := profile.New(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qprof:", err)
		os.Exit(1)
	}
	st := c.Stats()
	fmt.Printf("%s: %d qubits, %d gates (%d single-qubit, %d CX, %d measure)\n",
		c.Name, c.Qubits, st.Total, st.OneQubit, st.CX, st.Measure)
	fmt.Print(p.String())
	if *windows > 0 {
		tp, err := profile.NewTemporal(c, *windows)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qprof:", err)
			os.Exit(1)
		}
		fmt.Printf("\ntemporal profile (%d windows, drift %.3f):\n", *windows, tp.Drift())
		for w, win := range tp.Windows {
			fmt.Printf("window %d: %d CX, busiest qubit q%d (%d)\n",
				w, win.TotalCX, win.Degrees[0].Qubit, win.Degrees[0].Degree)
		}
	}
}
