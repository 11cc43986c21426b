package analyzer

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"yourandvalue/internal/geoip"
	"yourandvalue/internal/nurl"
	"yourandvalue/internal/useragent"
	"yourandvalue/internal/weblog"
)

// handTrace builds a trace no generator would: negative, zero and
// positive user IDs whose requests interleave in time, with every
// interned symbol left at detect.None so the engine runs its
// string-keyed caches. Each user browses a publisher, then receives
// notifications from every registered exchange plus cookie syncs and
// beacons; user 3 switches address and agent midway.
func handTrace() []weblog.Request {
	users := []int{-7, -2, -1, 0, 3, 8}
	exchanges := nurl.Default().Exchanges()
	agents := []string{
		useragent.Build(useragent.Spec{OS: useragent.Android, Type: useragent.Smartphone, Origin: useragent.MobileWeb}),
		useragent.Build(useragent.Spec{OS: useragent.IOS, Type: useragent.Tablet, Origin: useragent.MobileApp, App: "News"}),
	}
	cities := geoip.AllCities()
	pages := []string{"www.elpais.es", "www.marca.com", "www.booking.com"}
	t0 := time.Date(2015, 3, 1, 9, 0, 0, 0, time.UTC)
	var reqs []weblog.Request
	add := func(round, user int, url, host string) {
		ua, city := agents[user&1], cities[(user+7)%len(cities)]
		if user == 3 && round >= 2 {
			ua, city = agents[1], cities[len(cities)-1]
		}
		n := len(reqs)
		reqs = append(reqs, weblog.Request{
			Time:       t0.Add(time.Duration(n) * 17 * time.Minute),
			UserID:     user,
			URL:        url,
			Host:       host,
			UserAgent:  ua,
			ClientIP:   geoip.AddrFor(city, uint16(user+100)),
			Bytes:      int64(300 + 7*n),
			DurationMS: 0.1 + float64(n)/3,
		})
	}
	for round := 0; round < 4; round++ {
		for k, u := range users {
			page := pages[(k+round)%len(pages)]
			add(round, u, "http://"+page+"/news/story.html", page)
		}
		for i, ex := range exchanges {
			for k, u := range users {
				spec := nurl.BuildSpec{
					DSP: fmt.Sprintf("dsp-%d", (i+k)%3), ADXAlias: "ruc",
					Width: 300, Height: 250, ImpID: fmt.Sprintf("i%d-%d-%d", round, i, k),
				}
				if (i+k+round)%3 == 0 {
					spec.Token = "AAAABBBBCCCCDDDD"
				} else {
					spec.PriceCPM = 0.1 + float64(i*7+k*3+round)/9
				}
				nu := nurl.Build(ex, spec)
				host, _, _, _ := nurl.SplitURL(nu)
				add(round, u, nu, host)
			}
		}
		for k, u := range users {
			id := fmt.Sprintf("shared%04d", k)
			add(round, u, "http://cm.g.doubleclick.net/pixel?google_gid="+id, "cm.g.doubleclick.net")
			add(round, u, "http://ib.adnxs.com/getuid?uid="+id+"&redir=http%3A%2F%2Fx.mopub.com%2Fs", "ib.adnxs.com")
			add(round, u, "http://us-ads.openx.net/w/1.0/beacon?cb=1", "us-ads.openx.net")
		}
	}
	return reqs
}

// TestAnalyzeIdenticalAtAnyWorkerCount: the user-sharded fold returns
// a DeepEqual Result at every worker count, on a generated trace and on
// the hand-built one.
func TestAnalyzeIdenticalAtAnyWorkerCount(t *testing.T) {
	gen := smallTrace(31)
	for _, tc := range []struct {
		name string
		a    *Analyzer
		reqs []weblog.Request
	}{
		{"generated", New(gen.Catalog.Directory()), gen.Requests},
		{"hand-built", New(nil), handTrace()},
	} {
		ref := tc.a.Analyze(tc.reqs)
		if len(ref.Impressions) == 0 || len(ref.Users) < 6 || ref.Users[0].Syncs == 0 || ref.Users[0].Beacons == 0 {
			t.Fatalf("%s: degenerate reference: %d impressions, %d users", tc.name, len(ref.Impressions), len(ref.Users))
		}
		for _, w := range []int{2, 3, 7} {
			a := *tc.a
			a.Workers = w
			if got := a.Analyze(tc.reqs); !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: Analyze at %d workers differs from 1 worker", tc.name, w)
			}
		}
	}
}

// BenchmarkAnalyze times one Analyze pass over a scale-0.2 trace at 1
// and 2 workers. w1 isolates the per-request cost (detection engine,
// cookie-sync scan, fold); w2 adds the user-sharded parallelism.
//
//	go test -run '^$' -bench BenchmarkAnalyze -benchmem ./internal/analyzer
func BenchmarkAnalyze(b *testing.B) {
	cfg := weblog.DefaultConfig().Scaled(0.2)
	cfg.Seed = 1
	tr := weblog.Generate(cfg)
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			a := New(tr.Catalog.Directory())
			a.Workers = w
			b.ReportAllocs()
			for b.Loop() {
				a.Analyze(tr.Requests)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr.Requests)), "ns/request")
		})
	}
}

// TestAnalyzeAcrossHitBlocks: a user with several blocks' worth of
// detected impressions, interleaved in time with two lighter users, so
// one shard's hits cross block boundaries at every worker count. The
// Result equals the single-worker one field for field, and its
// impressions follow request order.
func TestAnalyzeAcrossHitBlocks(t *testing.T) {
	mopub, _ := nurl.Default().FindByName("MoPub")
	t0 := time.Date(2015, 5, 4, 8, 0, 0, 0, time.UTC)
	var reqs []weblog.Request
	var prices []float64
	for n := 0; n < 3*hitBlock; n++ {
		user := 4
		if n%5 == 0 {
			user = -3 + n%2
		}
		price := 0.01 * float64(n+1)
		nu := nurl.Build(mopub, nurl.BuildSpec{PriceCPM: price, DSP: fmt.Sprintf("dsp-%d", n%4)})
		host, _, _, _ := nurl.SplitURL(nu)
		reqs = append(reqs, weblog.Request{
			Time: t0.Add(time.Duration(n) * time.Minute), UserID: user,
			URL: nu, Host: host, Bytes: int64(600 + n), DurationMS: float64(n) / 7,
		})
		prices = append(prices, price)
	}
	ref := New(nil).Analyze(reqs)
	if len(ref.Impressions) != len(reqs) || ref.Users[4].Impressions <= 2*hitBlock {
		t.Fatalf("degenerate reference: %d impressions, user 4 has %d",
			len(ref.Impressions), ref.Users[4].Impressions)
	}
	for i, imp := range ref.Impressions {
		if imp.Notification.PriceCPM != prices[i] {
			t.Fatalf("impression %d: price %v, want %v (request order)", i, imp.Notification.PriceCPM, prices[i])
		}
	}
	for _, w := range []int{2, 3, 7} {
		a := New(nil)
		a.Workers = w
		if got := a.Analyze(reqs); !reflect.DeepEqual(got, ref) {
			t.Errorf("Analyze at %d workers differs from 1 worker", w)
		}
	}
}
