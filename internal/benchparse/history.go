package benchparse

import (
	"fmt"
	"sort"
	"strings"
)

// History aggregates a series of per-commit benchmark results — the
// BENCH_<sha>.json artifacts the CI bench job publishes — into one
// markdown trend table: one row per result in the given order (callers
// pass commits oldest-first), one column per selected benchmark, cells
// holding the ns/op geomean. It is the first building block of the bench
// dashboard: the table diffs cleanly commit to commit, and a regression
// that slipped past the PR gate is visible as a step in a column.
//
// names selects and orders the columns; empty selects every benchmark
// present in any result, sorted. A benchmark missing from a result
// renders as "—" (benchmarks come and go across history; a hole is data,
// not an error).
func History(results []*Result, names []string) string {
	rows := make([]HistoryRow, 0, len(results))
	for _, r := range results {
		row := HistoryRow{Commit: r.Commit, Cells: map[string]float64{}}
		for _, n := range r.Names() {
			if v, ok := r.GeoMean(n, "ns/op"); ok {
				row.Cells[n] = v
			}
		}
		rows = append(rows, row)
	}
	return HistoryTable(rows, names)
}

// HistoryRow is one trend-table row: a commit and its ns/op geomean per
// benchmark, as History derives it from one BENCH_<sha>.json artifact.
type HistoryRow struct {
	Commit string
	Cells  map[string]float64
}

// HistoryTable renders rows as the markdown trend table. names selects
// and orders the columns; empty selects every benchmark present in any
// row, sorted.
func HistoryTable(rows []HistoryRow, names []string) string {
	if len(names) == 0 {
		seen := map[string]bool{}
		for _, r := range rows {
			for n := range r.Cells {
				if !seen[n] {
					seen[n] = true
					names = append(names, n)
				}
			}
		}
		sort.Strings(names)
	}
	var b strings.Builder
	b.WriteString("# Benchmark history\n\n")
	fmt.Fprintf(&b, "%d commits × %d benchmarks, ns/op geomean per cell (lower is better).\n\n", len(rows), len(names))
	b.WriteString("| commit |")
	for _, n := range names {
		fmt.Fprintf(&b, " %s |", strings.TrimPrefix(n, "Benchmark"))
	}
	b.WriteString("\n|---|")
	b.WriteString(strings.Repeat("---:|", len(names)))
	b.WriteString("\n")
	for _, r := range rows {
		commit := r.Commit
		if len(commit) > 12 {
			commit = commit[:12]
		}
		if commit == "" {
			commit = "(unstamped)"
		}
		fmt.Fprintf(&b, "| %s |", commit)
		for _, n := range names {
			v, ok := r.Cells[n]
			if !ok {
				b.WriteString(" — |")
				continue
			}
			fmt.Fprintf(&b, " %s |", humanNs(v))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// humanNs renders a nanosecond quantity with a readable unit.
func humanNs(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fs", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fms", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fµs", v/1e3)
	default:
		return fmt.Sprintf("%.0fns", v)
	}
}
