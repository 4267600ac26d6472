package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"qproc/internal/experiments"
)

// TestAllGolden regenerates the -all report at paper budgets (seed 1)
// and diffs it against testdata/all.txt, so a change's effect on every
// reproduced §5 claim shows as a readable diff. After an intended change
// of the report, rewrite the file with
//
//	go run ./cmd/experiments -all > cmd/experiments/testdata/all.txt
func TestAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paper-fidelity evaluation")
	}
	want, err := os.ReadFile("testdata/all.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := writeAll(&got, experiments.NewRunner(experiments.DefaultOptions())); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %q\n want %q", i+1, g, w)
		}
	}
}
