package cliutil

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qproc/internal/arch"
)

func TestPositive(t *testing.T) {
	if err := Positive("workers", 1); err != nil {
		t.Errorf("1 rejected: %v", err)
	}
	for _, v := range []int{0, -3} {
		err := Positive("workers", v)
		if err == nil {
			t.Errorf("%d accepted", v)
		} else if !strings.Contains(err.Error(), "-workers") {
			t.Errorf("error does not name the flag: %v", err)
		}
	}
}

func TestNonNegativeAndAtLeast(t *testing.T) {
	if err := NonNegative("aux", 0); err != nil {
		t.Errorf("0 rejected: %v", err)
	}
	if err := NonNegative("aux", -1); err == nil {
		t.Error("-1 accepted")
	}
	if err := AtLeast("max-buses", -1, -1); err != nil {
		t.Errorf("sentinel -1 rejected: %v", err)
	}
	if err := AtLeast("max-buses", -2, -1); err == nil {
		t.Error("-2 accepted")
	}
}

func TestPositiveFloat(t *testing.T) {
	if err := PositiveFloat("sigma", 0.03); err != nil {
		t.Errorf("0.03 rejected: %v", err)
	}
	if err := PositiveFloat("sigma", 0); err == nil {
		t.Error("0 accepted")
	}
}

func TestSplitList(t *testing.T) {
	if got := SplitList(" a, ,b ,"); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("SplitList = %v", got)
	}
	if got := SplitList(""); got != nil {
		t.Errorf("empty input gave %v", got)
	}
}

func TestParseInts(t *testing.T) {
	got, err := ParseInts("aux", "0, 2,5", 0)
	if err != nil || len(got) != 3 || got[2] != 5 {
		t.Errorf("ParseInts = %v, %v", got, err)
	}
	if _, err := ParseInts("aux", "1,x", 0); err == nil || !strings.Contains(err.Error(), `"x"`) {
		t.Errorf("malformed item error = %v", err)
	}
	if _, err := ParseInts("aux", "-1", 0); err == nil {
		t.Error("below-minimum accepted")
	}
}

func TestParseSigmas(t *testing.T) {
	got, err := ParseSigmas("sigmas", "0.02,0.03")
	if err != nil || len(got) != 2 || got[1] != 0.03 {
		t.Errorf("ParseSigmas = %v, %v", got, err)
	}
	for _, bad := range []string{"abc", "0", "-0.01", "30"} {
		if _, err := ParseSigmas("sigmas", bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	if _, err := ParseSigmas("sigmas", "30"); err == nil || !strings.Contains(err.Error(), "0.03") {
		t.Errorf("MHz mix-up hint missing: %v", err)
	}
}

func TestAddr(t *testing.T) {
	for _, ok := range []string{":8080", "127.0.0.1:8080", "[::1]:0", "localhost:65535"} {
		if err := Addr("addr", ok); err != nil {
			t.Errorf("%q rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"", "8080", "host:", "host:http", "host:70000", "a:b:c"} {
		if err := Addr("addr", bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	if err := Addr("addr", "8080"); err == nil || !strings.Contains(err.Error(), ":8080") {
		t.Errorf("missing-colon hint absent: %v", err)
	}
}

func TestStoreDir(t *testing.T) {
	dir := t.TempDir()
	if err := StoreDir("store", dir); err != nil {
		t.Errorf("existing directory rejected: %v", err)
	}
	if err := StoreDir("store", filepath.Join(dir, "new")); err != nil {
		t.Errorf("creatable path rejected: %v", err)
	}
	file := filepath.Join(dir, "plain.json")
	if err := os.WriteFile(file, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := StoreDir("store", file); err == nil {
		t.Error("regular file accepted as store directory")
	}
	if err := StoreDir("store", ""); err == nil {
		t.Error("empty path accepted")
	}
}

// TestLoaders drives LoadCircuit and LoadArch through every flag
// combination the CLIs pass them.
func TestLoaders(t *testing.T) {
	dir := t.TempDir()
	prog := filepath.Join(dir, "prog.qasm")
	if err := os.WriteFile(prog, []byte("OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.qasm")
	if err := os.WriteFile(bad, []byte("OPENQASM 2.0;\nqreg q[2];\ncx q[1],q[1];\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	design := filepath.Join(dir, "design.json")
	var buf bytes.Buffer
	if err := arch.NewBaseline(arch.IBM16Q2Bus).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(design, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	circuits := []struct {
		name, file string
		want       string // the circuit's name, or a fragment of the error
		ok         bool
	}{
		{"sym6_145", "", "sym6_145", true},
		{"", prog, prog, true},
		{"sym6_145", prog, "mutually exclusive", false},
		{"", "", "need -name or -qasm", false},
		{"no_such_benchmark", "", "no_such_benchmark", false},
		{"", filepath.Join(dir, "missing.qasm"), "missing.qasm", false},
		{"", bad, "line 3", false},
	}
	for _, tc := range circuits {
		c, err := LoadCircuit(tc.name, tc.file)
		switch {
		case tc.ok && (err != nil || c.Name != tc.want):
			t.Errorf("LoadCircuit(%q, %q) = %v, %v; want a circuit named %q", tc.name, tc.file, c, err, tc.want)
		case !tc.ok && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("LoadCircuit(%q, %q) error = %v, want one containing %q", tc.name, tc.file, err, tc.want)
		}
	}

	archs := []struct {
		baseline int
		file     string
		want     string // the architecture's name, or a fragment of the error
		ok       bool
	}{
		{2, "", arch.NewBaseline(arch.IBM16Q4Bus).Name, true},
		{0, design, arch.NewBaseline(arch.IBM16Q2Bus).Name, true},
		{4, design, arch.NewBaseline(arch.IBM20Q4Bus).Name, true},
		{0, "", "need -baseline 1..4 or -arch", false},
		{5, "", "-baseline must be 1..4", false},
		{-1, design, "-baseline must be 1..4", false},
		{0, filepath.Join(dir, "missing.json"), "missing.json", false},
		{0, prog, "", false},
	}
	for _, tc := range archs {
		a, err := LoadArch(tc.baseline, tc.file)
		switch {
		case tc.ok && (err != nil || a.Name != tc.want):
			t.Errorf("LoadArch(%d, %q) = %v, %v; want %q", tc.baseline, tc.file, a, err, tc.want)
		case !tc.ok && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("LoadArch(%d, %q) error = %v, want one containing %q", tc.baseline, tc.file, err, tc.want)
		}
	}
}
