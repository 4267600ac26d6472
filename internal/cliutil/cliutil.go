// Package cliutil validates and parses command-line flag values shared
// by the cmd/ binaries, turning silent misbehaviour (a zero-trial
// Monte-Carlo run, a negative worker pool, a half-numeric σ list) into
// actionable errors before any work starts, and loads the programs and
// architectures their flags name.
package cliutil

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"qproc/internal/arch"
	"qproc/internal/circuit"
	"qproc/internal/gen"
	"qproc/internal/qasm"
)

// SignalContext returns a context cancelled by Ctrl-C / SIGTERM, so a
// long run aborts cooperatively (within one proposal batch / trial
// chunk) instead of being killed mid-write. For CLI mains that exit
// soon after the run, so the stop function is intentionally dropped.
func SignalContext() context.Context {
	ctx, _ := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	return ctx
}

// Positive rejects non-positive values of an integer flag.
func Positive(flagName string, v int) error {
	if v <= 0 {
		return fmt.Errorf("-%s must be a positive integer, got %d", flagName, v)
	}
	return nil
}

// NonNegative rejects negative values of an integer flag.
func NonNegative(flagName string, v int) error {
	if v < 0 {
		return fmt.Errorf("-%s must be >= 0, got %d", flagName, v)
	}
	return nil
}

// AtLeast rejects values below min, for flags where a sentinel (usually
// -1, "no limit") is the floor.
func AtLeast(flagName string, v, min int) error {
	if v < min {
		return fmt.Errorf("-%s must be >= %d, got %d", flagName, min, v)
	}
	return nil
}

// PositiveFloat rejects non-positive values of a float flag.
func PositiveFloat(flagName string, v float64) error {
	if v <= 0 {
		return fmt.Errorf("-%s must be positive, got %g", flagName, v)
	}
	return nil
}

// NonNegativeFloat rejects negative values of a float flag.
func NonNegativeFloat(flagName string, v float64) error {
	if v < 0 {
		return fmt.Errorf("-%s must be >= 0, got %g", flagName, v)
	}
	return nil
}

// Sigma validates a single fabrication σ flag value (GHz) with the same
// plausibility rules as ParseSigmas.
func Sigma(flagName string, v float64) error {
	if v <= 0 {
		return fmt.Errorf("-%s: σ must be positive, got %g", flagName, v)
	}
	if v >= 1 {
		return fmt.Errorf("-%s: σ = %g GHz is implausibly large — did you mean %g?", flagName, v, v/1000)
	}
	return nil
}

// Addr validates a TCP listen-address flag of the host:port form (the
// host may be empty to bind every interface).
func Addr(flagName, v string) error {
	if v == "" {
		return fmt.Errorf("-%s must be host:port (e.g. \":8080\" or \"127.0.0.1:8080\")", flagName)
	}
	_, port, err := net.SplitHostPort(v)
	if err != nil {
		return fmt.Errorf("-%s: %q is not host:port (e.g. \":8080\" or \"127.0.0.1:8080\"): %v", flagName, v, err)
	}
	p, err := strconv.Atoi(port)
	if err != nil {
		return fmt.Errorf("-%s: port %q is not a number", flagName, port)
	}
	if p < 0 || p > 65535 {
		return fmt.Errorf("-%s: port %d is outside 0-65535", flagName, p)
	}
	return nil
}

// StoreDir validates a run-store directory flag: the path must be
// creatable as (or already be) a directory. An existing regular file is
// rejected before any work starts rather than failing mid-run.
func StoreDir(flagName, v string) error {
	if v == "" {
		return fmt.Errorf("-%s needs a directory path (e.g. -%s runs)", flagName, flagName)
	}
	if fi, err := os.Stat(v); err == nil && !fi.IsDir() {
		return fmt.Errorf("-%s: %s exists and is not a directory", flagName, v)
	}
	return nil
}

// WriteOutput streams write to the named file, or to fallback when path
// is empty, surfacing Create/Close errors so a truncated output cannot
// pass silently.
func WriteOutput(path string, fallback io.Writer, write func(io.Writer) error) error {
	if path == "" {
		return write(fallback)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// SplitList splits a comma-separated flag value, trimming space and
// dropping empty items; an empty input yields nil.
func SplitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// ParseInts parses a comma-separated list of integers, naming the flag
// and the offending item on failure. Each value must be >= min.
func ParseInts(flagName, s string, min int) ([]int, error) {
	var out []int
	for _, item := range SplitList(s) {
		v, err := strconv.Atoi(item)
		if err != nil {
			return nil, fmt.Errorf("-%s: %q is not an integer (want e.g. \"0,1,2\")", flagName, item)
		}
		if v < min {
			return nil, fmt.Errorf("-%s: %d is below the minimum %d", flagName, v, min)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseSigmas parses a comma-separated list of fabrication σ values in
// GHz. Values must be positive; values of 1 GHz or more are rejected as
// almost certainly a MHz/GHz mix-up.
func ParseSigmas(flagName, s string) ([]float64, error) {
	var out []float64
	for _, item := range SplitList(s) {
		v, err := strconv.ParseFloat(item, 64)
		if err != nil {
			return nil, fmt.Errorf("-%s: %q is not a number (want σ in GHz, e.g. \"0.02,0.03\")", flagName, item)
		}
		if v <= 0 {
			return nil, fmt.Errorf("-%s: σ must be positive, got %g", flagName, v)
		}
		if v >= 1 {
			return nil, fmt.Errorf("-%s: σ = %g GHz is implausibly large — did you mean %g?", flagName, v, v/1000)
		}
		out = append(out, v)
	}
	return out, nil
}

// LoadCircuit returns the program the -name and -qasm flags select: the
// named built-in benchmark, decomposed, or the OpenQASM file, named by
// its path. Exactly one of the two must be set.
func LoadCircuit(name, file string) (*circuit.Circuit, error) {
	switch {
	case name != "" && file != "":
		return nil, fmt.Errorf("-name and -qasm are mutually exclusive")
	case name != "":
		b, err := gen.Get(name)
		if err != nil {
			return nil, err
		}
		return b.Build(), nil
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		c, err := qasm.Parse(f)
		if err != nil {
			return nil, err
		}
		c.Name = file
		return c, nil
	}
	return nil, fmt.Errorf("need -name or -qasm (try -name %s)", gen.Names()[0])
}

// LoadArch returns the architecture the -baseline and -arch flags select:
// IBM baseline 1-4, or with -baseline 0 the JSON design file.
func LoadArch(baseline int, file string) (*arch.Architecture, error) {
	switch {
	case baseline < 0 || baseline > 4:
		return nil, fmt.Errorf("-baseline must be 1..4 (0 = use -arch), got %d", baseline)
	case baseline > 0:
		return arch.NewBaseline(arch.Baseline(baseline)), nil
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return arch.ReadJSON(f)
	}
	return nil, fmt.Errorf("need -baseline 1..4 or -arch file.json")
}
