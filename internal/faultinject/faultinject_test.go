package faultinject

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestParseRejectsBadSpecs(t *testing.T) {
	bad := []string{
		"store.get",                  // no action
		"nope.site:error",            // unknown site
		"store.get:explode",          // unknown action
		"store.get:delay=notadur",    // bad duration
		"store.get:error:p=2",        // p out of range
		"store.get:error:p=NaN",      // p not a probability
		"store.get:delay=-5ms",       // negative delay
		"store.get:error:after=-1",   // negative after
		"store.get:error:every=0",    // every < 1
		"store.get:error:times=0",    // times < 1
		"store.get:error:frobnicate", // bad parameter syntax
		"store.get:error:x=1",        // unknown parameter
	}
	for _, spec := range bad {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("Parse(%q) = nil error, want failure", spec)
		}
	}
}

func TestParseAcceptsEmptyClauses(t *testing.T) {
	p, err := Parse("store.get:error; ;journal.append:delay=1ms", 1)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(p.rules) != 2 {
		t.Fatalf("rules = %d, want 2", len(p.rules))
	}
}

func TestDisabledCheckIsNil(t *testing.T) {
	Disable()
	if Enabled() {
		t.Fatal("Enabled() = true with no plan")
	}
	if err := Check(SiteStoreGet); err != nil {
		t.Fatalf("Check with no plan = %v, want nil", err)
	}
}

func TestErrorRuleFiresAndWrapsSentinel(t *testing.T) {
	p, err := Parse("store.get:error:times=2", 7)
	if err != nil {
		t.Fatal(err)
	}
	Enable(p)
	defer Disable()
	for i := 0; i < 2; i++ {
		err := Check(SiteStoreGet)
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("hit %d: err = %v, want ErrInjected", i, err)
		}
		if !strings.Contains(err.Error(), SiteStoreGet) {
			t.Fatalf("err %q does not name the site", err)
		}
	}
	if err := Check(SiteStoreGet); err != nil {
		t.Fatalf("after times=2 exhausted: err = %v, want nil", err)
	}
	// Other sites are untouched.
	if err := Check(SiteStorePut); err != nil {
		t.Fatalf("unrelated site: err = %v, want nil", err)
	}
}

func TestAfterAndEverySchedule(t *testing.T) {
	p, err := Parse("journal.append:error:after=2:every=3", 7)
	if err != nil {
		t.Fatal(err)
	}
	Enable(p)
	defer Disable()
	var fired []int
	for i := 1; i <= 12; i++ {
		if Check(SiteJournalAppend) != nil {
			fired = append(fired, i)
		}
	}
	// Hits 1,2 skipped; then every 3rd of the remainder: 5, 8, 11.
	want := []int{5, 8, 11}
	if len(fired) != len(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fired, want)
		}
	}
}

func TestProbabilisticRuleIsDeterministic(t *testing.T) {
	run := func(seed int64) []bool {
		p, err := Parse("estimator.estimate:error:p=0.5", seed)
		if err != nil {
			t.Fatal(err)
		}
		Enable(p)
		defer Disable()
		out := make([]bool, 64)
		for i := range out {
			out[i] = Check(SiteEstimatorEstimate) != nil
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d", i)
		}
	}
	fires := 0
	for _, f := range a {
		if f {
			fires++
		}
	}
	if fires == 0 || fires == len(a) {
		t.Fatalf("p=0.5 fired %d/%d times; want a mixture", fires, len(a))
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestProbabilityBounds: p=0 never fires and p=1 fires on every hit, as
// a rule with no p= does.
func TestProbabilityBounds(t *testing.T) {
	for _, c := range []struct {
		spec string
		want int
	}{
		{"store.get:error:p=0", 0},
		{"store.get:error:p=1", 100},
		{"store.get:error", 100},
	} {
		p, err := Parse(c.spec, 7)
		if err != nil {
			t.Fatal(err)
		}
		Enable(p)
		fires := 0
		for i := 0; i < 100; i++ {
			if Check(SiteStoreGet) != nil {
				fires++
			}
		}
		Disable()
		if fires != c.want {
			t.Errorf("%s fired on %d of 100 hits, want %d", c.spec, fires, c.want)
		}
	}
}

func TestPanicRule(t *testing.T) {
	p, err := Parse("workpool.dispatch:panic:times=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	Enable(p)
	defer Disable()
	defer func() {
		if recover() == nil {
			t.Fatal("panic rule did not panic")
		}
	}()
	Check(SiteWorkpoolDispatch)
}

func TestDelayRule(t *testing.T) {
	p, err := Parse("checkpoint.put:delay=20ms:times=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	Enable(p)
	defer Disable()
	start := time.Now()
	if err := Check(SiteCheckpointPut); err != nil {
		t.Fatalf("delay rule returned error %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("delay rule slept %v, want >= 20ms", d)
	}
}

// FuzzFaultSpec: Parse never panics, and every clause it accepts has p
// in [0,1], a delay ≥ 0, after ≥ 0, every ≥ 1, and times ≥ 1 or unset
// (0, unlimited).
func FuzzFaultSpec(f *testing.F) {
	for _, seed := range []string{
		"", ";", "store.get:error", "store.get:error:times=1;journal.append:delay=5ms:every=3",
		"store.put:panic:after=2:every=2:times=3", "checkpoint.get:error:p=0.25",
		"workpool.dispatch:delay=1ms:p=1", "estimator.estimate:error:p=0", " metrics.append : error : p = 0.5 ",
		"store.get:error:p=NaN", "store.get:error:p=-0", "store.get:error:p=1e-400", "store.get:error:p=0x1p-2",
		"store.get:delay=-5ms", "store.get:delay=0", "store.get:delay=9223372036854775807ns",
		"store.get:error:after=-1", "store.get:error:every=0", "store.get:error:times=0",
		"store.get:error:times=9223372036854775808", "store.get:error:p", "store.get::p=1", "nope:error",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec, 1)
		if err != nil {
			return
		}
		for site, rules := range p.rules {
			for _, r := range rules {
				if !(r.p >= 0 && r.p <= 1) || r.delay < 0 || r.after < 0 || r.every < 1 || r.times < 0 {
					t.Fatalf("Parse(%q) accepted a %s rule with p=%v delay=%v after=%d every=%d times=%d",
						spec, site, r.p, r.delay, r.after, r.every, r.times)
				}
			}
		}
	})
}
