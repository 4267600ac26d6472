package main

import "testing"

func TestCoveredMergesOverlapsAndClips(t *testing.T) {
	got := covered(0, 100, [][2]int64{{60, 70}, {10, 30}, {20, 50}, {90, 120}, {-5, 2}})
	// [0,2) + [10,50) + [60,70) + [90,100) = 2 + 40 + 10 + 10.
	if got != 62 {
		t.Errorf("covered = %d, want 62", got)
	}
	if got := covered(0, 10, nil); got != 0 {
		t.Errorf("covered without intervals = %d", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "mapper.map", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "mapper.map", Start: 20, End: 50}, // fanned out beside 2
		{ID: 4, Parent: 1, Name: "search.run", Start: 60, End: 95},
		{ID: 5, Parent: 4, Name: "metrics.append", Start: 70, End: 75},
		{ID: 6, Parent: 4, Name: "runstore.checkpoint_put", Start: 80, End: 90},
		{ID: 7, Name: "probe.mapper.map", Start: 200, End: 260, Calls: 3},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - 40 - 35, // the grandchildren sit inside search.run
		2: 30, 3: 30,
		4: 35 - 15,
		5: 5, 6: 10,
		7: 60,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d (%s) = %d, want %d", id, spans[id-1].Name, self[id], w)
		}
	}
	lt := totals(spans)
	if got := lt.perCall("mapper.map"); got != 30 {
		t.Errorf("per-call mapper.map = %v, want 30", got)
	}
	if got := lt.perCall("yield.noise_gen"); got != 0 {
		t.Errorf("per-call of an unprobed, uncalled layer = %v, want 0", got)
	}
	spans[1].Name, spans[2].Name = "core.series", "core.series"
	if got := totals(spans).perCall("mapper.map"); got != 20 {
		t.Errorf("per-call mapper.map from its probe = %v, want 60/3", got)
	}
	for i := range spans[:6] {
		spans[i].Job = "j"
	}
	if got := coverage(spans, "core.series"); got != 40 {
		t.Errorf("coverage of overlapping core.series = %d, want 40", got)
	}
}
