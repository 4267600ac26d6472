// Command benchjson converts `go test -bench` output to JSON, gates
// benchmark regressions, and aggregates stored per-commit artifacts into
// a trend table — the building blocks of the CI bench job.
//
// Usage:
//
//	go test -bench . -benchmem -run '^$' | benchjson -commit $SHA -out BENCH_$SHA.json
//	benchjson -old bench_main.txt -new bench_head.txt \
//	          -gate BenchmarkSweep,BenchmarkEstimateCached -threshold 15
//	benchjson -history 'BENCH_*.json' -out BENCH_history.md
//
// In gate mode the exit status is 1 when any gated benchmark's ns/op
// geomean regressed by more than -threshold percent against the baseline
// (or is missing from either run; -allow-new exempts benchmarks the
// baseline predates). In history mode the named BENCH_<sha>.json files
// (a glob pattern or comma-separated list, ordered oldest-first when the
// caller sorts by commit time) render as one markdown table, one row per
// commit and one ns/op-geomean column per benchmark.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"qproc/internal/benchparse"
	"qproc/internal/cliutil"
)

func main() {
	var (
		in        = flag.String("in", "", "bench output to convert (default stdin)")
		out       = flag.String("out", "", "output destination (default stdout)")
		commit    = flag.String("commit", "", "commit SHA to stamp into the JSON")
		oldFile   = flag.String("old", "", "baseline bench output (gate mode)")
		newFile   = flag.String("new", "", "candidate bench output (gate mode)")
		gate      = flag.String("gate", "", "comma-separated benchmark names to gate")
		threshold = flag.Float64("threshold", 15, "regression threshold in percent")
		allowNew  = flag.Bool("allow-new", false, "gate mode: skip gated benchmarks missing from the baseline (new in this change) instead of failing")
		history   = flag.String("history", "", "glob pattern or comma-separated list of BENCH_<sha>.json artifacts to aggregate into a markdown trend table")
		names     = flag.String("names", "", "history mode: comma-separated benchmark columns (default: all present)")
	)
	flag.Parse()

	if err := cliutil.PositiveFloat("threshold", *threshold); err != nil {
		fatal(err)
	}
	if (*oldFile == "") != (*newFile == "") {
		fatal(fmt.Errorf("gate mode needs both -old and -new"))
	}
	if *history != "" && *oldFile != "" {
		fatal(fmt.Errorf("-history and gate mode are mutually exclusive"))
	}
	switch {
	case *history != "":
		runHistory(*history, *names, *out)
	case *oldFile != "":
		runGate(*oldFile, *newFile, *gate, *threshold, *allowNew)
	default:
		runConvert(*in, *out, *commit)
	}
}

// runConvert parses one bench output and emits it as JSON.
func runConvert(in, out, commit string) {
	res, err := benchparse.Parse(openOrStdin(in))
	if err != nil {
		fatal(err)
	}
	res.Commit = commit
	encode := func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	// Close/flush failures surface: a truncated artifact must fail the job.
	if err := cliutil.WriteOutput(out, os.Stdout, encode); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmark runs (%d distinct)\n", len(res.Runs), len(res.Names()))
}

// runGate compares two bench outputs and fails on regressions.
func runGate(oldFile, newFile, gate string, threshold float64, allowNew bool) {
	names := cliutil.SplitList(gate)
	if len(names) == 0 {
		fatal(fmt.Errorf("gate mode needs -gate with at least one benchmark name"))
	}
	old, new := parseFile(oldFile), parseFile(newFile)
	if allowNew {
		kept := names[:0]
		for _, n := range names {
			if _, ok := old.GeoMean(n, "ns/op"); ok {
				kept = append(kept, n)
			} else {
				fmt.Printf("%-40s new benchmark, no baseline — skipped\n", n)
			}
		}
		names = kept
		if len(names) == 0 {
			fmt.Println("every gated benchmark is new; nothing to compare")
			return
		}
	}
	deltas, regressions, err := benchparse.Compare(old, new, names, threshold)
	if err != nil {
		fatal(err)
	}
	for _, d := range deltas {
		fmt.Printf("%-40s %14.0f -> %14.0f ns/op  %+6.1f%%\n", d.Name, d.Old, d.New, d.Pct)
	}
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed more than %.0f%%\n", len(regressions), threshold)
		os.Exit(1)
	}
	fmt.Printf("no regression beyond %.0f%%\n", threshold)
}

// resolveArtifacts expands a glob pattern or comma-separated list into
// artifact paths, sorted for deterministic order when globbed.
func resolveArtifacts(pattern string) []string {
	files := cliutil.SplitList(pattern)
	if len(files) == 1 && strings.ContainsAny(files[0], "*?[") {
		matches, err := filepath.Glob(files[0])
		if err != nil {
			fatal(fmt.Errorf("bad -history pattern: %w", err))
		}
		sort.Strings(matches)
		files = matches
	}
	if len(files) == 0 {
		fatal(fmt.Errorf("-history %q matched no artifacts", pattern))
	}
	return files
}

// decodeArtifact reads one BENCH_<sha>.json file.
func decodeArtifact(path string) *benchparse.Result {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var res benchparse.Result
	if err := json.Unmarshal(data, &res); err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return &res
}

// writeMarkdown emits a rendered table to -out or stdout.
func writeMarkdown(out, md string) {
	if err := cliutil.WriteOutput(out, os.Stdout, func(w io.Writer) error {
		_, err := io.WriteString(w, md)
		return err
	}); err != nil {
		fatal(err)
	}
}

// runHistory aggregates stored BENCH_<sha>.json artifacts into a
// markdown trend table.
func runHistory(pattern, names, out string) {
	var results []*benchparse.Result
	for _, f := range resolveArtifacts(pattern) {
		results = append(results, decodeArtifact(f))
	}
	writeMarkdown(out, benchparse.History(results, cliutil.SplitList(names)))
	fmt.Fprintf(os.Stderr, "benchjson: history over %d artifacts\n", len(results))
}

func parseFile(path string) *benchparse.Result {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	res, err := benchparse.Parse(f)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return res
}

func openOrStdin(path string) io.Reader {
	if path == "" {
		return os.Stdin
	}
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	return f
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
