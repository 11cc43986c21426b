package weblog

import (
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestMergeByTimeTies: equal timestamps across runs go to the lower run
// first, equal timestamps within a run keep the run's order, and empty
// runs are skipped — the order a stable sort of the concatenated runs
// gives.
func TestMergeByTimeTies(t *testing.T) {
	type rec struct {
		t        time.Time
		run, seq int
	}
	at := func(r *rec) time.Time { return r.t }
	base := time.Date(2015, 3, 1, 9, 0, 0, 0, time.UTC)
	ts := func(sec ...int) []time.Time {
		out := make([]time.Time, len(sec))
		for i, s := range sec {
			out[i] = base.Add(time.Duration(s) * time.Second)
		}
		return out
	}
	cases := [][][]time.Time{
		{},
		{nil, nil},
		{ts(0, 1, 2)},
		{ts(5, 5, 5), ts(5, 5), nil, ts(5)},
		{ts(0, 2, 2, 4), ts(1, 2, 3, 4), ts(2, 2), nil, ts(0, 4, 4, 9)},
		{ts(3), ts(2), ts(1), ts(0), ts(1), ts(2), ts(3)},
		{ts(0, 0, 1, 1, 7), nil, ts(1, 1, 1), ts(), ts(0, 7, 7), ts(-1, 0, 1)},
	}
	for ci, times := range cases {
		var runs [][]rec
		var want []rec
		for ri, rt := range times {
			var run []rec
			for si, tt := range rt {
				run = append(run, rec{tt, ri, si})
			}
			runs = append(runs, run)
			want = append(want, run...)
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].t.Before(want[j].t) })
		got := mergeByTime(runs, at)
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: merge order\n got %v\nwant %v", ci, got, want)
		}
		if cap(got) != len(want) {
			t.Errorf("case %d: cap %d, want exactly %d", ci, cap(got), len(want))
		}
	}
}
