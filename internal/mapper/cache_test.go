package mapper_test

import (
	"strings"
	"testing"

	"qproc/internal/arch"
	"qproc/internal/circuit"
	"qproc/internal/core"
	"qproc/internal/gen"
	"qproc/internal/mapper"
)

// TestCacheCountsMatchMap is the cache's differential test: through one
// shared cache, every design of the five configurations of several
// benchmarks, at aux 0 and 1, and every IBM baseline reads exactly the
// GateCount and Swaps a direct Map call returns.
func TestCacheCountsMatchMap(t *testing.T) {
	opt := mapper.DefaultOptions()
	cache := mapper.NewCache()
	lookups := 0
	for _, name := range []string{"sym6_145", "rd84_142", "misex1_241", "cm152a_212"} {
		b, err := gen.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		c := b.Build()
		prog := mapper.NewProgram(c)
		flow := core.NewFlow(1)
		var designs []*core.Design
		for _, aux := range []int{0, 1} {
			for _, cfg := range core.Configs() {
				if aux > 0 && cfg != core.ConfigEffFull && cfg != core.ConfigEff5Freq {
					continue
				}
				ds, err := flow.SeriesConfig(c, cfg, -1, aux, 1)
				if err != nil {
					t.Fatalf("%s %s aux=%d: %v", name, cfg, aux, err)
				}
				designs = append(designs, ds...)
			}
		}
		for _, d := range designs {
			want, err := mapper.Map(c, d.Arch, opt)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, d.Arch.Name, err)
			}
			got, err := cache.Counts(prog, d.Arch, opt)
			if err != nil {
				t.Fatalf("%s on %s: cached: %v", name, d.Arch.Name, err)
			}
			if got.GateCount != want.GateCount || got.Swaps != want.Swaps {
				t.Errorf("%s on %s: cache %+v, Map (%d gates, %d swaps)",
					name, d.Arch.Name, got, want.GateCount, want.Swaps)
			}
			lookups++
		}
	}
	s := cache.Snapshot()
	if s.Hits+s.Misses != uint64(lookups) || s.Hits == 0 || s.Entries != int(s.Misses) {
		t.Errorf("%d lookups gave %+v; want every lookup counted, shared topologies hit", lookups, s)
	}
}

// TestCacheSharesTopologyAcrossNames pins the key: the eff-full and
// eff-5-freq designs of one bus count share a coupling graph under
// different names and frequencies, and share one entry.
func TestCacheSharesTopologyAcrossNames(t *testing.T) {
	b, err := gen.Get("rd84_142")
	if err != nil {
		t.Fatal(err)
	}
	c := b.Build()
	flow := core.NewFlow(1)
	full, err := flow.Series(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	five, err := flow.SeriesConfig(c, core.ConfigEff5Freq, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, o := full[len(full)-1].Arch, five[len(five)-1].Arch
	if a.Name == o.Name || a.Freqs[0] == o.Freqs[0] {
		t.Fatalf("designs %q and %q do not differ in name and frequencies", a.Name, o.Name)
	}
	cache := mapper.NewCache()
	prog := mapper.NewProgram(c)
	opt := mapper.DefaultOptions()
	x, err := cache.Counts(prog, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	y, err := cache.Counts(prog, o, opt)
	if err != nil {
		t.Fatal(err)
	}
	if x != y {
		t.Errorf("shared topology read %+v and %+v", x, y)
	}
	if s := cache.Snapshot(); s.Entries != 1 || s.Misses != 1 || s.Hits != 1 {
		t.Errorf("two designs of one topology: %+v, want one entry, one miss, one hit", s)
	}
	// Any other option is another key.
	opt.Iterations++
	if _, err := cache.Counts(prog, a, opt); err != nil {
		t.Fatal(err)
	}
	if s := cache.Snapshot(); s.Entries != 2 {
		t.Errorf("changed options shared an entry: %+v", s)
	}
}

// TestCacheFailureNamesEachCaller: a cached failure reaches each caller
// as its own Map error, naming its own architecture.
func TestCacheFailureNamesEachCaller(t *testing.T) {
	c := circuit.New("wide", 17)
	for q := 0; q+1 < 17; q++ {
		c.CX(q, q+1)
	}
	a := arch.NewBaseline(arch.IBM16Q2Bus)
	b := a.Clone()
	b.Name = "renamed-16q"
	cache := mapper.NewCache()
	prog := mapper.NewProgram(c)
	for _, x := range []*arch.Architecture{a, b, a} {
		_, err := cache.Counts(prog, x, mapper.DefaultOptions())
		if err == nil || !strings.Contains(err.Error(), "\""+x.Name+"\"") {
			t.Fatalf("on %q: error %v, want one naming %q", x.Name, err, x.Name)
		}
	}
	if s := cache.Snapshot(); s.Misses != 1 || s.Hits != 2 {
		t.Errorf("three failing lookups of one topology: %+v, want one miss", s)
	}
}

// TestNilCacheRoutes: a nil cache routes every call.
func TestNilCacheRoutes(t *testing.T) {
	b, err := gen.Get("sym6_145")
	if err != nil {
		t.Fatal(err)
	}
	c := b.Build()
	a := arch.NewBaseline(arch.IBM16Q2Bus)
	want, err := mapper.Map(c, a, mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var cache *mapper.Cache
	got, err := cache.Counts(mapper.NewProgram(c), a, mapper.DefaultOptions())
	if err != nil || got.GateCount != want.GateCount || got.Swaps != want.Swaps {
		t.Errorf("nil cache: %+v, %v; want (%d, %d)", got, err, want.GateCount, want.Swaps)
	}
}

var sinkCounts mapper.Counts

// BenchmarkMapCache measures a cache lookup against the routing it
// saves, on BenchmarkMapper's program and architecture: cold
// fingerprints the program and routes into an empty cache, warm is a
// hit (the architecture hash and the lookup).
func BenchmarkMapCache(b *testing.B) {
	bench, err := gen.Get("square_root_7")
	if err != nil {
		b.Fatal(err)
	}
	c := bench.Build()
	a := arch.NewBaseline(arch.IBM16Q2Bus)
	opt := mapper.DefaultOptions()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n, err := mapper.NewCache().Counts(mapper.NewProgram(c), a, opt)
			if err != nil {
				b.Fatal(err)
			}
			sinkCounts = n
		}
	})
	b.Run("warm", func(b *testing.B) {
		cache, prog := mapper.NewCache(), mapper.NewProgram(c)
		if _, err := cache.Counts(prog, a, opt); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n, err := cache.Counts(prog, a, opt)
			if err != nil {
				b.Fatal(err)
			}
			sinkCounts = n
		}
	})
}
