package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestFiveFreqTakesAux: an eff-5-freq series laid out with -aux 1 lists
// designs with one qubit more than the same series at -aux 0.
func TestFiveFreqTakesAux(t *testing.T) {
	args := []string{"-name", "sym6_145", "-config", "eff-5-freq", "-max-buses", "1", "-q"}
	plain := designQubits(t, append(args, "-aux", "0")...)
	withAux := designQubits(t, append(args, "-aux", "1")...)
	if len(plain) == 0 || len(withAux) == 0 {
		t.Fatalf("no designs listed: aux 0 %v, aux 1 %v", plain, withAux)
	}
	for _, n := range withAux {
		if n != plain[0]+1 {
			t.Fatalf("-aux 1 designs have %v qubits, -aux 0 designs %v", withAux, plain)
		}
	}
}

// TestRejectsIgnoredFlags: a flag qdesign would ignore fails the run
// instead, with an error that names it.
func TestRejectsIgnoredFlags(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"layout-only aux", []string{"-config", "eff-layout-only", "-aux", "1"}, "auxiliary"},
		{"freq-trials", []string{"-freq-trials", "5"}, "freq-trials"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, stderr, err := run(t, append([]string{"-name", "sym6_145", "-q"}, c.args...)...)
			if err == nil {
				t.Fatalf("qdesign %v exited 0", c.args)
			}
			if !strings.Contains(stderr, c.want) {
				t.Fatalf("qdesign %v: stderr %q does not name %q", c.args, stderr, c.want)
			}
		})
	}
}

// designLine matches a listed design's qubit count.
var designLine = regexp.MustCompile(`^\S+: (\d+) qubits, `)

// designQubits runs qdesign, which must succeed, and returns the qubit
// count of every design it lists.
func designQubits(t *testing.T, args ...string) []int {
	t.Helper()
	stdout, stderr, err := run(t, args...)
	if err != nil {
		t.Fatalf("qdesign %v: %v\n%s", args, err, stderr)
	}
	var out []int
	for _, line := range strings.Split(stdout, "\n") {
		if m := designLine.FindStringSubmatch(line); m != nil {
			n, err := strconv.Atoi(m[1])
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, n)
		}
	}
	return out
}

// run runs the qdesign binary with args.
func run(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	cmd := exec.Command(qdesignBinary(t), args...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// TestMain removes the binary qdesignBinary built, if any.
func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// qdesignBinary builds qdesign once per package run and returns its path;
// under -short it skips the calling test.
func qdesignBinary(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	buildOnce.Do(func() {
		if binDir, buildErr = os.MkdirTemp("", "qdesign-test-"); buildErr != nil {
			return
		}
		build := exec.Command("go", "build", "-o", filepath.Join(binDir, "qdesign"), ".")
		build.Stderr = os.Stderr
		buildErr = build.Run()
	})
	if buildErr != nil {
		t.Fatalf("building qdesign: %v", buildErr)
	}
	return filepath.Join(binDir, "qdesign")
}
