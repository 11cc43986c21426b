package weblog_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"yourandvalue/internal/scenario"
	"yourandvalue/internal/weblog"
)

// sortedReference builds the batch trace the old way: concatenate every
// user's stream in yield order, then stable-sort requests and
// impressions by time.
func sortedReference(t *testing.T, cfg weblog.Config) (users []weblog.User, reqs []weblog.Request, imps []weblog.ImpressionTruth) {
	t.Helper()
	cfg.Workers = 1
	if err := weblog.GenerateStream(cfg, nil, func(ut weblog.UserTrace) error {
		users = append(users, ut.User)
		reqs = append(reqs, ut.Requests...)
		imps = append(imps, ut.Impressions...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Time.Before(reqs[j].Time) })
	sort.SliceStable(imps, func(i, j int) bool { return imps[i].Ctx.Time.Before(imps[j].Ctx.Time) })
	return users, reqs, imps
}

// TestGenerateMatchesSortedReference: Generate's merge of per-user runs
// is record for record the stable global sort of the concatenated runs,
// across seeds, scales, worker counts and a scenario world.
func TestGenerateMatchesSortedReference(t *testing.T) {
	surge, err := scenario.Get(scenario.EncryptedSurge)
	if err != nil {
		t.Fatal(err)
	}
	type world struct {
		name string
		cfg  weblog.Config
	}
	var worlds []world
	for _, seed := range []int64{1, 7, 42} {
		for _, scale := range []float64{0.01, 0.05} {
			cfg := weblog.DefaultConfig().Scaled(scale)
			cfg.Seed = seed
			worlds = append(worlds, world{fmt.Sprintf("seed%d-scale%g", seed, scale), cfg})
		}
	}
	worlds = append(worlds, world{"encrypted-surge", surge.TraceConfig(1, 0.05)})

	for _, w := range worlds {
		users, reqs, imps := sortedReference(t, w.cfg)
		for _, workers := range []int{1, 2, 7} {
			cfg := w.cfg
			cfg.Workers = workers
			tr := weblog.Generate(cfg)
			if !reflect.DeepEqual(tr.Users, users) {
				t.Errorf("%s workers=%d: users differ", w.name, workers)
			}
			if !reflect.DeepEqual(tr.Requests, reqs) {
				t.Errorf("%s workers=%d: requests differ from the sorted reference (%d vs %d)",
					w.name, workers, len(tr.Requests), len(reqs))
			}
			if !reflect.DeepEqual(tr.Impressions, imps) {
				t.Errorf("%s workers=%d: impressions differ from the sorted reference (%d vs %d)",
					w.name, workers, len(tr.Impressions), len(imps))
			}
		}
	}
}
