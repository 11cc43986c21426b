package weblog

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"

	"yourandvalue/internal/detect"
	"yourandvalue/internal/geoip"
	"yourandvalue/internal/nurl"
	"yourandvalue/internal/stats"
	"yourandvalue/internal/useragent"
)

// smallConfig keeps unit tests fast (~2% of paper scale).
func smallConfig(seed int64) Config {
	c := DefaultConfig().Scaled(0.02)
	c.Seed = seed
	return c
}

// TestUserShard pins the user → shard routing every per-user
// partitioner shares: results stay in [0, n) for negative IDs and at the
// ends of the int range, and neighbouring IDs land on neighbouring
// shards, so a hand-built trace with negative IDs still spreads evenly.
func TestUserShard(t *testing.T) {
	for _, c := range []struct{ id, n, want int }{
		{0, 1, 0}, {7, 1, 0}, {-7, 1, 0},
		{0, 2, 0}, {-1, 2, 1}, {-2, 2, 0},
		{0, 3, 0}, {4, 3, 1}, {-1, 3, 2}, {-3, 3, 0}, {-4, 3, 2},
		{math.MinInt, 2, 0}, {math.MinInt, 3, 1}, {math.MinInt, 7, 6},
		{math.MinInt + 1, 3, 2}, {math.MinInt + 1, 7, 0},
		{math.MaxInt, 3, 1}, {math.MaxInt, 7, 0},
	} {
		if got := UserShard(c.id, c.n); got != c.want {
			t.Errorf("UserShard(%d, %d) = %d, want %d", c.id, c.n, got, c.want)
		}
	}
	ids := []int{math.MinInt, math.MinInt + 1, math.MinInt + 2, -8, -1, 0, 1, 8, math.MaxInt - 1}
	for _, n := range []int{1, 2, 3, 7} {
		for _, id := range ids {
			s := UserShard(id, n)
			if s < 0 || s >= n {
				t.Errorf("UserShard(%d, %d) = %d, outside [0, %d)", id, n, s, n)
			}
			if next := UserShard(id+1, n); next != (s+1)%n {
				t.Errorf("UserShard(%d, %d) = %d after %d, want %d", id+1, n, next, s, (s+1)%n)
			}
		}
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog(50, 20)
	if len(c.Sites) != 50 || len(c.Apps) != 20 {
		t.Fatalf("catalog sizes %d/%d", len(c.Sites), len(c.Apps))
	}
	for _, p := range c.Sites {
		if p.IsApp() {
			t.Error("site flagged as app")
		}
		if got := c.Directory().Lookup(p.Domain); got != p.Category {
			t.Errorf("directory disagrees for %s: %v vs %v", p.Domain, got, p.Category)
		}
	}
	for _, p := range c.Apps {
		if !p.IsApp() {
			t.Error("app not flagged")
		}
	}
	if n := c.CategoryCount(); n != 18 {
		t.Errorf("category count = %d, want 18 (Table 3)", n)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallConfig(5))
	b := Generate(smallConfig(5))
	if len(a.Requests) != len(b.Requests) || len(a.Impressions) != len(b.Impressions) {
		t.Fatalf("sizes differ: %d/%d vs %d/%d",
			len(a.Requests), len(a.Impressions), len(b.Requests), len(b.Impressions))
	}
	for i := range a.Impressions {
		if a.Impressions[i].NURL != b.Impressions[i].NURL {
			t.Fatal("impression streams differ under same seed")
		}
	}
	c := Generate(smallConfig(6))
	if len(c.Impressions) == len(a.Impressions) && len(c.Requests) == len(a.Requests) {
		// Extremely unlikely to match exactly under a different seed.
		t.Error("different seeds produced identical trace sizes")
	}
}

func TestImpressionVolumeNearTarget(t *testing.T) {
	cfg := smallConfig(1)
	tr := Generate(cfg)
	got := float64(tr.RTBCount())
	want := float64(cfg.Impressions)
	if got < want*0.7 || got > want*1.3 {
		t.Errorf("impressions = %v, want ≈%v", got, want)
	}
}

func TestRequestsOrderedAndWellFormed(t *testing.T) {
	tr := Generate(smallConfig(2))
	if len(tr.Requests) == 0 {
		t.Fatal("empty trace")
	}
	for i, r := range tr.Requests {
		if i > 0 && r.Time.Before(tr.Requests[i-1].Time) {
			t.Fatal("requests not time-ordered")
		}
		if r.Time.Year() != tr.Year {
			t.Fatalf("request outside trace year: %v", r.Time)
		}
		if r.Host == "" || r.URL == "" || r.UserAgent == "" || r.ClientIP == "" {
			t.Fatalf("incomplete request %+v", r)
		}
		if r.Bytes < 0 || r.DurationMS < 0 {
			t.Fatalf("negative accounting %+v", r)
		}
		if r.UserID < 0 || r.UserID >= len(tr.Users) {
			t.Fatalf("bad user id %d", r.UserID)
		}
	}
}

func TestNURLsParseable(t *testing.T) {
	tr := Generate(smallConfig(3))
	reg := nurl.Default()
	for _, imp := range tr.Impressions {
		n, ok := reg.Parse(imp.NURL)
		if !ok {
			t.Fatalf("impression nURL unparseable: %s", imp.NURL)
		}
		if imp.Encrypted != (n.Kind == nurl.Encrypted) {
			t.Fatalf("encryption flag mismatch for %s", imp.NURL)
		}
		if !imp.Encrypted {
			if diff := n.PriceCPM - imp.ChargeCPM; diff > 1e-3 || diff < -1e-3 {
				t.Fatalf("cleartext price %v != truth %v", n.PriceCPM, imp.ChargeCPM)
			}
		}
		if imp.ChargeCPM <= 0 {
			t.Fatal("non-positive ground-truth charge")
		}
	}
}

func TestUserPopulationShape(t *testing.T) {
	cfg := DefaultConfig().Scaled(0.3) // larger sample for stable shares
	cfg.Seed = 4
	tr := Generate(cfg)

	android, ios := 0, 0
	whales := 0
	cityCounts := map[geoip.City]int{}
	for _, u := range tr.Users {
		switch u.OS {
		case useragent.Android:
			android++
		case useragent.IOS:
			ios++
		}
		if u.ValueMultiplier > 8 {
			whales++
		}
		cityCounts[u.City]++
		if !u.City.Valid() {
			t.Fatalf("user %d has invalid city", u.ID)
		}
		if u.SessionsPerDay <= 0 || u.AppAffinity < 0.3 || u.AppAffinity > 0.8 {
			t.Fatalf("user traits out of range: %+v", u)
		}
	}
	// Android ≈ 2× iOS (Figure 8); wide band for the small sample.
	ratio := float64(android) / float64(ios)
	if ratio < 1.4 || ratio > 2.8 {
		t.Errorf("android/ios user ratio = %v, want ≈2", ratio)
	}
	// ~2% whales (±1.5 points).
	wf := float64(whales) / float64(len(tr.Users))
	if wf < 0.005 || wf > 0.05 {
		t.Errorf("whale fraction = %v, want ≈0.02", wf)
	}
	// Madrid should be the most common home city.
	for c, n := range cityCounts {
		if c != geoip.Madrid && n > cityCounts[geoip.Madrid] {
			t.Errorf("city %v (%d users) outnumbers Madrid (%d)", c, n, cityCounts[geoip.Madrid])
		}
	}
}

// TestMakeUsersOSDistribution checks the OS mix at large N where binomial
// noise is negligible: Android ≈2× iOS (Figures 8–9).
func TestMakeUsersOSDistribution(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 20000
	users := makeUsers(cfg, DefaultPopulation(), stats.NewRand(17))
	counts := map[useragent.OS]int{}
	for _, u := range users {
		counts[u.OS]++
	}
	ratio := float64(counts[useragent.Android]) / float64(counts[useragent.IOS])
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("android/ios = %v at N=20000, want ≈2", ratio)
	}
	if counts[useragent.WindowsMobile] == 0 || counts[useragent.OSOther] == 0 {
		t.Error("minor OSes absent")
	}
}

func TestEncryptedShareGrowsInTrace(t *testing.T) {
	cfg := DefaultConfig().Scaled(0.1)
	cfg.Seed = 9
	tr := Generate(cfg)
	encByHalf := [2]int{}
	totByHalf := [2]int{}
	for _, imp := range tr.Impressions {
		h := 0
		if imp.Month > 6 {
			h = 1
		}
		totByHalf[h]++
		if imp.Encrypted {
			encByHalf[h]++
		}
	}
	s1 := float64(encByHalf[0]) / float64(totByHalf[0])
	s2 := float64(encByHalf[1]) / float64(totByHalf[1])
	if s2 <= s1 {
		t.Errorf("encrypted share should grow: H1 %.3f, H2 %.3f", s1, s2)
	}
	overall := float64(encByHalf[0]+encByHalf[1]) / float64(totByHalf[0]+totByHalf[1])
	if overall < 0.10 || overall > 0.45 {
		t.Errorf("overall encrypted share = %.3f, want ≈0.26 (§2.4)", overall)
	}
}

func TestAppPricesHigher(t *testing.T) {
	cfg := DefaultConfig().Scaled(0.1)
	cfg.Seed = 10
	tr := Generate(cfg)
	var app, web []float64
	for _, imp := range tr.Impressions {
		if imp.Ctx.Origin == useragent.MobileApp {
			app = append(app, imp.ChargeCPM)
		} else {
			web = append(web, imp.ChargeCPM)
		}
	}
	ma, _ := stats.Mean(app)
	mw, _ := stats.Mean(web)
	if ma/mw < 1.5 {
		t.Errorf("app/web mean price ratio = %v, want ≈2.6 (§4.4)", ma/mw)
	}
}

func TestScaled(t *testing.T) {
	c := DefaultConfig()
	s := c.Scaled(0.1)
	if s.Users != 159 || s.Impressions != 7856 {
		t.Errorf("scaled = %d users / %d imps", s.Users, s.Impressions)
	}
	// Out-of-range factors clamp instead of silently returning the
	// unscaled config: f <= 0 collapses to the minimum population...
	for _, f := range []float64{0, -1} {
		if bad := c.Scaled(f); bad.Users != 10 || bad.Impressions != 100 {
			t.Errorf("Scaled(%v) = %d users / %d imps, want minimum 10/100",
				f, bad.Users, bad.Impressions)
		}
	}
	// ...and f > 1 clamps to full (f = 1) scale.
	for _, f := range []float64{1, 2, 1000} {
		if full := c.Scaled(f); full.Users != c.Users || full.Impressions != c.Impressions {
			t.Errorf("Scaled(%v) = %d users / %d imps, want full %d/%d",
				f, full.Users, full.Impressions, c.Users, c.Impressions)
		}
	}
	tiny := c.Scaled(0.0001)
	if tiny.Users < 10 || tiny.Impressions < 100 {
		t.Error("scaling floor violated")
	}
}

// TestGenerateStreamMatchesGenerate: the incremental per-user emission
// path must reproduce the batch trace bit-for-bit — same users, and the
// concatenation of every yielded block must stable-sort into exactly
// Generate's request and impression streams.
func TestGenerateStreamMatchesGenerate(t *testing.T) {
	cfg := DefaultConfig().Scaled(0.01)
	cfg.Seed = 23
	batch := Generate(cfg)

	var users []User
	var reqs []Request
	var imps []ImpressionTruth
	if err := GenerateStream(cfg, nil, func(ut UserTrace) error {
		users = append(users, ut.User)
		for i := 1; i < len(ut.Requests); i++ {
			if ut.Requests[i].Time.Before(ut.Requests[i-1].Time) {
				t.Fatalf("user %d requests not time-sorted", ut.User.ID)
			}
		}
		reqs = append(reqs, ut.Requests...)
		imps = append(imps, ut.Impressions...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Time.Before(reqs[j].Time) })
	sort.SliceStable(imps, func(i, j int) bool { return imps[i].Ctx.Time.Before(imps[j].Ctx.Time) })

	if !reflect.DeepEqual(users, batch.Users) {
		t.Fatal("streamed population differs from batch population")
	}
	if !reflect.DeepEqual(reqs, batch.Requests) {
		t.Fatalf("streamed requests differ from batch (%d vs %d records)",
			len(reqs), len(batch.Requests))
	}
	if !reflect.DeepEqual(imps, batch.Impressions) {
		t.Fatal("streamed impression truth differs from batch")
	}
}

// TestGenerateStreamStopsOnYieldError: a failing yield aborts generation
// immediately with the callee's error.
func TestGenerateStreamStopsOnYieldError(t *testing.T) {
	cfg := DefaultConfig().Scaled(0.01)
	wantErr := errors.New("stop")
	calls := 0
	err := GenerateStream(cfg, nil, func(UserTrace) error {
		calls++
		return wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if calls != 1 {
		t.Fatalf("yield called %d times after error, want 1", calls)
	}
}

func TestHostOf(t *testing.T) {
	cases := map[string]string{
		"http://a.b.c/path?q=1": "a.b.c",
		"http://a.b.c?q=1":      "a.b.c",
		"http://a.b.c":          "a.b.c",
		"a.b.c/x":               "a.b.c",
	}
	for in, want := range cases {
		if got := hostOf(in); got != want {
			t.Errorf("hostOf(%q) = %q", in, got)
		}
	}
}

func TestMonthIndex(t *testing.T) {
	if monthIndex(2015, 1) != 1 || monthIndex(2015, 12) != 12 {
		t.Error("2015 months")
	}
	if monthIndex(2016, 5) != 17 {
		t.Error("2016 offset")
	}
}

func TestIsLeap(t *testing.T) {
	for y, want := range map[int]bool{2015: false, 2016: true, 2000: true, 1900: false} {
		if isLeap(y) != want {
			t.Errorf("isLeap(%d) = %v", y, !want)
		}
	}
}

// TestInternedViewsCoherent pins the interned-record contract: every
// symbol a generated trace carries must round-trip through the trace's
// SymbolTable back to exactly the string view beside it, for requests
// (hosts, agents, addresses) and impression ground truth (ad entities,
// publishers) alike. Consumers key caches and evaluation joins by these
// dense ids, so a drift between the two views would corrupt silently.
func TestInternedViewsCoherent(t *testing.T) {
	cfg := DefaultConfig().Scaled(0.01)
	cfg.Seed = 17
	trace := Generate(cfg)
	if trace.Symbols == nil {
		t.Fatal("trace carries no symbol table")
	}
	syms := trace.Symbols
	webAgents, appAgents := 0, 0
	for _, r := range trace.Requests {
		if r.HostSym == detect.None {
			t.Fatalf("request host not interned: %+v", r)
		}
		if syms.Hosts.String(r.HostSym) != r.Host {
			t.Fatalf("request host views diverged: %+v", r)
		}
		// Shared web agents are interned; per-user in-app agents and
		// client addresses deliberately are not (bounded-memory
		// streaming contract).
		if r.AgentSym != detect.None {
			webAgents++
			if syms.Agents.String(r.AgentSym) != r.UserAgent {
				t.Fatalf("request agent views diverged: %+v", r)
			}
		} else {
			appAgents++
		}
		if r.AddrSym != detect.None {
			t.Fatalf("client address unexpectedly interned: %+v", r)
		}
	}
	if webAgents == 0 || appAgents == 0 {
		t.Fatalf("agent interning split degenerate: %d web, %d app", webAgents, appAgents)
	}
	if got, limit := syms.Agents.Len(), 12; got > limit {
		t.Errorf("agent namespace grew past the bounded web-UA vocabulary: %d > %d", got, limit)
	}
	for _, it := range trace.Impressions {
		if syms.Names.String(it.ADXSym) != it.ADX ||
			syms.Names.String(it.DSPSym) != it.DSP {
			t.Fatalf("impression ad-entity views diverged: %+v", it)
		}
		if pub := syms.Hosts.String(it.PublisherSym); pub != it.Ctx.Publisher {
			t.Fatalf("impression publisher %q != context publisher %q", pub, it.Ctx.Publisher)
		}
	}
	// The same symbols must be live in the streaming form: a request
	// host interned by GenerateStream resolves identically.
	if got := syms.Hosts.Lookup(trace.Requests[0].Host); got != trace.Requests[0].HostSym {
		t.Fatalf("lookup disagrees with the emitted symbol: %d vs %d", got, trace.Requests[0].HostSym)
	}
}
