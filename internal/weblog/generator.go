package weblog

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"yourandvalue/internal/detect"
	"yourandvalue/internal/geoip"
	"yourandvalue/internal/nurl"
	"yourandvalue/internal/rtb"
	"yourandvalue/internal/stats"
	"yourandvalue/internal/useragent"
)

// Config sizes a synthetic trace. The zero value is invalid; use
// DefaultConfig (full paper scale) or DefaultConfig().Scaled(f).
type Config struct {
	Seed int64
	// Users is the population size; the paper's D has 1,594.
	Users int
	// Impressions is the target number of RTB price notifications; the
	// paper's D carries 78,560.
	Impressions int
	// Sites and Apps size the browsing catalog.
	Sites, Apps int
	// Year of the trace; D spans 2015.
	Year int
	// BackgroundPerSession is the mean number of non-ad third-party
	// requests logged per browsing session.
	BackgroundPerSession float64
	// Ecosystem overrides the default RTB simulator when non-nil.
	Ecosystem *rtb.Ecosystem
	// Population overrides the default user-base mix when non-nil.
	Population *Population
	// Workers is the number of users generated concurrently; values
	// below 2 generate serially. Because every user draws from their own
	// keyed RNG substream, the emitted trace is bit-identical at any
	// worker count — Workers trades memory (a bounded reorder window of
	// ~2×Workers user traces) for wall-clock speed only.
	Workers int
}

// DefaultConfig reproduces the paper's dataset-D scale.
func DefaultConfig() Config {
	return Config{
		Seed:                 1,
		Users:                1594,
		Impressions:          78560,
		Sites:                300,
		Apps:                 150,
		Year:                 2015,
		BackgroundPerSession: 2.5,
	}
}

// Scaled returns a copy with the population and impression volume scaled
// by f, for fast tests and benchmarks. f is clamped into (0, 1]: factors
// above 1 run at full scale (f = 1) and non-positive factors collapse to
// the minimum population (10 users / 100 impressions), so an out-of-range
// factor never silently returns the unscaled full-size config.
func (c Config) Scaled(f float64) Config {
	f = min(max(f, 0), 1)
	c.Users = max(int(float64(c.Users)*f), 10)
	c.Impressions = max(int(float64(c.Impressions)*f), 100)
	return c
}

// Normalized returns the configuration Generate actually runs: a config
// without a positive population falls back to DefaultConfig wholesale
// (the historical contract), and zero Year/Sites/Apps take their
// defaults. Normalized is idempotent and does not touch Ecosystem,
// Population or Workers.
func (c Config) Normalized() Config {
	if c.Users <= 0 || c.Impressions <= 0 {
		eco, pop, workers := c.Ecosystem, c.Population, c.Workers
		c = DefaultConfig()
		c.Ecosystem, c.Population, c.Workers = eco, pop, workers
	}
	if c.Year == 0 {
		c.Year = 2015
	}
	if c.Sites <= 0 {
		c.Sites = 300
	}
	if c.Apps <= 0 {
		c.Apps = 150
	}
	return c
}

// population resolves the configured population (default when nil).
func (c Config) population() Population {
	if c.Population != nil {
		return *c.Population
	}
	return DefaultPopulation()
}

// diurnal weights the hour-of-day at which sessions start.
var diurnal = [24]float64{
	1.0, 0.5, 0.3, 0.2, 0.3, 0.6, 1.2, 2.2, 3.0, 3.4, 3.5, 3.4,
	3.0, 3.0, 2.6, 2.6, 3.0, 3.4, 4.0, 4.4, 4.4, 3.8, 2.8, 1.8,
}

// Third-party background hosts, keyed to the default traffic-class lists.
var (
	cdnHosts       = []string{"cdn.gstatic.com", "img.akamaihd.net", "assets.cloudfront.net", "code.jquery.com"}
	analyticsHosts = []string{"www.google-analytics.com", "b.scorecardresearch.com", "pixel.quantserve.com"}
	socialHosts    = []string{"connect.facebook.net", "platform.twitter.com", "widgets.pinterest.com"}
	syncHosts      = []string{"sync.adnxs.com", "pixel.rubiconproject.com", "sync.mathtag.com", "cm.turn.com", "us-ads.openx.net"}
)

// Generate materializes a synthetic year-long trace per the config. The
// result is deterministic in Config.Seed at any Config.Workers count.
// Generate is the batch form of GenerateStream: it keeps every user's
// time-sorted records as a run and merges the runs by time into slices
// allocated once at their final size. Equal timestamps keep the run of
// the lower user position first and a run's own order within it, which
// is the order a stable sort of the concatenated runs gives.
func Generate(cfg Config) *Trace {
	cfg = cfg.Normalized()
	catalog := NewCatalog(cfg.Sites, cfg.Apps)
	trace := &Trace{Catalog: catalog, Year: cfg.Year}
	var reqRuns [][]Request
	var impRuns [][]ImpressionTruth
	err := GenerateStream(cfg, catalog, func(ut UserTrace) error {
		trace.Users = append(trace.Users, ut.User)
		reqRuns = append(reqRuns, ut.Requests)
		impRuns = append(impRuns, ut.Impressions)
		trace.Symbols = ut.Symbols
		return nil
	})
	if err != nil {
		// The yield above never fails, so the only possible error is an
		// invalid Config.Population — programmer error on this
		// error-less batch API. Fail loudly rather than hand every
		// downstream stage a silently empty trace.
		panic("weblog: " + err.Error())
	}
	trace.Requests = mergeByTime(reqRuns, func(r *Request) time.Time { return r.Time })
	trace.Impressions = mergeByTime(impRuns, func(t *ImpressionTruth) time.Time { return t.Ctx.Time })
	return trace
}

// mergeByTime k-way merges runs, each already stable-sorted by at, into
// one slice allocated at their total length. A binary min-heap holds one
// head per unexhausted run, keyed by (time, run index): on equal times
// the lower run goes first, so the output equals a stable sort of the
// runs' concatenation. It consumes runs: an entry is resliced past each
// record taken and set to nil once exhausted, so its memory can be freed.
func mergeByTime[T any](runs [][]T, at func(*T) time.Time) []T {
	type head struct {
		t   time.Time
		run int
	}
	less := func(a, b *head) bool {
		c := a.t.Compare(b.t)
		return c < 0 || c == 0 && a.run < b.run
	}
	n := 0
	h := make([]head, 0, len(runs))
	for i, r := range runs {
		if len(r) > 0 {
			n += len(r)
			h = append(h, head{at(&r[0]), i})
		}
	}
	down := func(i int) {
		for {
			m := i
			if l := 2*i + 1; l < len(h) && less(&h[l], &h[m]) {
				m = l
			}
			if r := 2*i + 2; r < len(h) && less(&h[r], &h[m]) {
				m = r
			}
			if m == i {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	out := make([]T, 0, n)
	for len(h) > 0 {
		top := &h[0]
		r := runs[top.run]
		out = append(out, r[0])
		if r = r[1:]; len(r) > 0 {
			runs[top.run] = r
			top.t = at(&r[0])
		} else {
			runs[top.run] = nil
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	return out
}

// UserTrace is one user's complete year of traffic as GenerateStream
// emits it: requests stable-sorted by time (matching the user's relative
// record order in the fully sorted batch trace) together with the
// generator-side ground truth behind their RTB impressions. The slices
// are owned by the callee. Symbols is the trace-wide interner behind the
// records' dense ids — frozen before generation starts, so the same
// table instance is complete on every yield.
type UserTrace struct {
	User        User
	Requests    []Request
	Impressions []ImpressionTruth
	Symbols     *detect.SymbolTable
}

// GenerateStream is the incremental form of Generate: it synthesizes the
// same trace user by user, calling yield once per user (in user-id
// order) with that user's complete traffic, so peak memory stays bounded
// by the reorder window's worth of user records instead of the whole
// population's. cat overrides the browsing catalog when non-nil (it must
// be a NewCatalog of the config's sizes); nil builds one. A non-nil
// error from yield stops generation and is returned.
//
// Determinism contract: every user draws from their own keyed RNG
// substream — NewSubstream(seed, userID) for traffic and an auction
// Session keyed the same way for impressions — and the interned-symbol
// vocabulary is frozen before generation starts. Each user's trace is
// therefore derivable in isolation, and the emitted stream (hence
// Generate's merged batch trace) is bit-identical for a given
// (seed, scenario) at ANY Config.Workers count. internal/weblog's
// parallel determinism test pins this under -race.
func GenerateStream(cfg Config, cat *Catalog, yield func(UserTrace) error) error {
	cfg = cfg.Normalized()
	pop := cfg.population()
	if err := pop.Validate(); err != nil {
		return err
	}
	rng := stats.NewRand(cfg.Seed)
	eco := cfg.Ecosystem
	if eco == nil {
		eco = rtb.NewEcosystem(rtb.EcosystemConfig{Seed: cfg.Seed + 1})
	}
	if cat == nil {
		cat = NewCatalog(cfg.Sites, cfg.Apps)
	}

	users := makeUsers(cfg, pop, rng)

	// Auction probability per session calibrated so the expected RTB
	// impression count meets the target.
	days := 365
	if isLeap(cfg.Year) {
		days = 366
	}
	expectedSessions := 0.0
	for _, u := range users {
		expectedSessions += u.SessionsPerDay * float64(days)
	}
	adRate := float64(cfg.Impressions) / expectedSessions // may exceed 1

	shared := &sharedGen{
		cfg:      cfg,
		eco:      eco,
		catalog:  cat,
		syms:     preinternVocab(cat, eco),
		siteZipf: stats.NewZipf(1.15, len(cat.Sites)),
		appZipf:  stats.NewZipf(1.15, len(cat.Apps)),
		adRate:   adRate,
		days:     days,
		start:    time.Date(cfg.Year, 1, 1, 0, 0, 0, 0, time.UTC),
	}

	gen := func(u *User) UserTrace {
		g := &userGen{
			sharedGen: shared,
			rng:       stats.NewSubstream(cfg.Seed, uint64(u.ID)),
			ses: eco.NewSubstreamSession(cfg.Seed+1, uint64(u.ID),
				fmt.Sprintf("u%04d-", u.ID)),
		}
		g.user(u)
		slices.SortStableFunc(g.reqs, func(a, b Request) int {
			return a.Time.Compare(b.Time)
		})
		slices.SortStableFunc(g.imps, func(a, b ImpressionTruth) int {
			return a.Ctx.Time.Compare(b.Ctx.Time)
		})
		return UserTrace{User: *u, Requests: g.reqs, Impressions: g.imps, Symbols: shared.syms}
	}

	workers := cfg.Workers
	if workers > len(users) {
		workers = len(users)
	}
	if workers < 2 {
		for ui := range users {
			if err := yield(gen(&users[ui])); err != nil {
				return err
			}
		}
		return nil
	}
	return generateParallel(users, workers, gen, yield)
}

// generateParallel is the sharded driver: workers generate users
// concurrently while the emitter yields them strictly in user order
// through a bounded reorder ring, so memory stays bounded by ~2×workers
// user traces and the yield sequence is identical to the serial path.
func generateParallel(users []User, workers int,
	gen func(*User) UserTrace, yield func(UserTrace) error) error {
	window := workers * 2
	ring := make([]chan UserTrace, window)
	for i := range ring {
		ring[i] = make(chan UserTrace, 1)
	}
	sem := make(chan struct{}, window) // in-flight (dispatched, un-yielded) users
	done := make(chan struct{})
	jobs := make(chan int)

	// Dispatcher: hands out user indices in order, never running more
	// than `window` ahead of the emitter. That bound is what makes the
	// ring slots single-writer: by the time user i+window is dispatched,
	// user i's slot has been consumed.
	go func() {
		defer close(jobs)
		for i := range users {
			select {
			case sem <- struct{}{}:
			case <-done:
				return
			}
			select {
			case jobs <- i:
			case <-done:
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				ut := gen(&users[i])
				select {
				case ring[i%window] <- ut:
				case <-done:
					return
				}
			}
		}()
	}

	var err error
	for i := range users {
		ut := <-ring[i%window]
		if err = yield(ut); err != nil {
			break
		}
		<-sem
	}
	close(done)
	wg.Wait()
	return err
}

// sharedGen is the read-only state every worker shares: the config, the
// ecosystem (immutable roster/market/adoption), the catalog, the frozen
// symbol table, and the popularity tables. Nothing here is written
// during generation.
type sharedGen struct {
	cfg      Config
	eco      *rtb.Ecosystem
	catalog  *Catalog
	syms     *detect.SymbolTable
	siteZipf *stats.Zipf
	appZipf  *stats.Zipf
	adRate   float64
	days     int
	start    time.Time
}

// userGen generates exactly one user's year of traffic from that user's
// private RNG substream and auction session.
type userGen struct {
	*sharedGen
	rng  *stats.Rand
	ses  *rtb.Session
	reqs []Request
	imps []ImpressionTruth
}

// user synthesizes the full year for u.
func (g *userGen) user(u *User) {
	webUA := useragent.Build(useragent.Spec{
		OS: u.OS, Type: u.Device, Origin: useragent.MobileWeb,
	})
	appUA := useragent.Build(useragent.Spec{
		OS: u.OS, Type: u.Device, Origin: useragent.MobileApp,
		App: fmt.Sprintf("com.user%04d.app", u.ID),
	})
	for day := 0; day < g.days; day++ {
		n := g.rng.Poisson(u.SessionsPerDay)
		for s := 0; s < n; s++ {
			hour := g.rng.WeightedChoice(diurnal[:])
			ts := g.start.Add(time.Duration(day)*24*time.Hour +
				time.Duration(hour)*time.Hour +
				time.Duration(g.rng.Intn(3600))*time.Second)
			inApp := g.rng.Float64() < u.AppAffinity
			var prop Property
			var ua string
			if inApp {
				prop = g.catalog.Apps[g.appZipf.Sample(g.rng)]
				ua = appUA
			} else {
				prop = g.catalog.Sites[g.siteZipf.Sample(g.rng)]
				ua = webUA
			}
			g.session(u, ts, prop, ua, inApp)
		}
	}
}

func (g *userGen) emit(r Request) { g.reqs = append(g.reqs, r) }

// request emits one record with its interned views. The symbol table is
// frozen before generation, so these are pure lookups — only strings
// from bounded vocabularies (hosts, shared web user agents) carry
// symbols; per-user-unique strings (the com.userNNNN.app UA, the client
// IP) stay string-typed, as interning them would grow the table linearly
// with users and break the bounded-memory streaming contract.
func (g *userGen) request(u *User, ts time.Time, rawURL, host, ua string, inApp bool, meanBytes float64) {
	r := Request{
		Time: ts, UserID: u.ID, URL: rawURL, Host: host,
		UserAgent: ua, ClientIP: u.IP,
		Bytes:      int64(g.rng.LogNormalMeanStd(meanBytes, meanBytes)),
		DurationMS: g.rng.LogNormalMeanStd(180, 150),
		HostSym:    g.syms.Hosts.Lookup(host),
	}
	if !inApp {
		r.AgentSym = g.syms.Agents.Lookup(ua)
	}
	g.emit(r)
}

// session emits the request cluster of one browsing session: the page (or
// app API call), background third-party traffic, occasional cookie syncs
// and beacons, and — with probability adRate — an RTB auction whose nURL
// lands in the trace.
func (g *userGen) session(u *User, ts time.Time, prop Property, ua string, inApp bool) {
	rng := g.rng
	pageURL := "http://" + prop.Domain + "/"
	if prop.IsApp() {
		pageURL = "http://" + prop.Domain + "/v1/feed"
	}
	g.request(u, ts, pageURL, prop.Domain, ua, inApp, 24000)

	nBg := rng.Poisson(g.cfg.BackgroundPerSession)
	for i := 0; i < nBg; i++ {
		ts = ts.Add(time.Duration(50+rng.Intn(400)) * time.Millisecond)
		var host, path string
		switch rng.Intn(4) {
		case 0:
			host, path = analyticsHosts[rng.Intn(len(analyticsHosts))], "/collect?v=1&t=pageview"
		case 1:
			host, path = socialHosts[rng.Intn(len(socialHosts))], "/plugins/like.php"
		default:
			host, path = cdnHosts[rng.Intn(len(cdnHosts))], fmt.Sprintf("/static/a%d.js", rng.Intn(50))
		}
		g.request(u, ts, "http://"+host+path, host, ua, inApp, 8000)
	}

	// Cookie synchronization: a pair of ad hosts exchanging the user's ID.
	if rng.Float64() < 0.10 {
		h1 := syncHosts[rng.Intn(len(syncHosts))]
		h2 := syncHosts[rng.Intn(len(syncHosts))]
		ts = ts.Add(80 * time.Millisecond)
		g.request(u, ts, fmt.Sprintf("http://%s/getuid?user_id=%s", h1, u.SyncID), h1, ua, inApp, 400)
		if h2 != h1 {
			ts = ts.Add(40 * time.Millisecond)
			g.request(u, ts, fmt.Sprintf("http://%s/usersync?user_id=%s&redir=http%%3A%%2F%%2F%s%%2Fmatch", h2, u.SyncID, h1), h2, ua, inApp, 400)
		}
	}
	if rng.Float64() < 0.10 {
		h := syncHosts[rng.Intn(len(syncHosts))]
		ts = ts.Add(60 * time.Millisecond)
		g.request(u, ts, "http://"+h+"/px.gif?r="+fmt.Sprint(rng.Intn(1<<30)), h, ua, inApp, 43)
	}

	// RTB auctions for this session's ad slots.
	k := int(g.adRate)
	if rng.Float64() < g.adRate-float64(k) {
		k++
	}
	for i := 0; i < k; i++ {
		ts = ts.Add(time.Duration(100+rng.Intn(300)) * time.Millisecond)
		g.auction(u, ts, prop, ua, inApp)
	}
}

func (g *userGen) auction(u *User, ts time.Time, prop Property, ua string, inApp bool) {
	month := int(ts.Month())
	origin := useragent.MobileWeb
	if prop.IsApp() {
		origin = useragent.MobileApp
	}
	ctx := rtb.Context{
		Time:      ts,
		City:      u.City,
		OS:        u.OS,
		Device:    u.Device,
		Origin:    origin,
		Publisher: prop.Domain,
		Category:  prop.Category,
		Slot:      rtb.SampleSlot(month, g.rng.WeightedChoice),
		UserValue: u.ValueMultiplier,
		Year2016:  g.cfg.Year >= 2016,
	}
	res, ok := g.ses.Serve(ctx, monthIndex(g.cfg.Year, month))
	if !ok {
		return
	}
	host := hostOf(res.NURL)
	g.request(u, ts, res.NURL, host, ua, inApp, 600)
	g.imps = append(g.imps, ImpressionTruth{
		UserID: u.ID, Month: month, Ctx: ctx,
		ADX: res.ADX.Name, DSP: res.Winner.Name,
		ChargeCPM: res.ChargeCPM, Encrypted: res.Encrypted,
		NURL:         res.NURL,
		ADXSym:       g.syms.Names.Lookup(res.ADX.Name),
		DSPSym:       g.syms.Names.Lookup(res.Winner.Name),
		PublisherSym: g.syms.Hosts.Lookup(prop.Domain),
	})
}

// preinternVocab builds the trace's symbol table up front: every bounded
// vocabulary the generator emits — catalog and third-party hosts, the
// exchanges' notification hosts, the shared web user agents, and the ad
// entity names — is interned in a deterministic order before any worker
// starts. The table is read-only from then on, which is what lets the
// parallel workers share it without locks and keeps symbol ids identical
// at every worker count.
func preinternVocab(cat *Catalog, eco *rtb.Ecosystem) *detect.SymbolTable {
	syms := detect.NewSymbolTable()
	for _, p := range cat.Sites {
		syms.Hosts.Intern(p.Domain)
	}
	for _, p := range cat.Apps {
		syms.Hosts.Intern(p.Domain)
	}
	for _, hosts := range [][]string{cdnHosts, analyticsHosts, socialHosts, syncHosts} {
		for _, h := range hosts {
			syms.Hosts.Intern(h)
		}
	}
	for _, adx := range eco.ADXs {
		// The notification host is however the exchange's descriptor
		// renders it; derive it by building a throwaway notification
		// rather than duplicating nurl's host table here.
		syms.Hosts.Intern(hostOf(nurl.Build(adx.Exchange, nurl.BuildSpec{PriceCPM: 1})))
		syms.Names.Intern(adx.Name)
		for _, d := range adx.DSPs {
			syms.Names.Intern(d.Name)
		}
	}
	for _, os := range []useragent.OS{
		useragent.Android, useragent.IOS, useragent.WindowsMobile, useragent.OSOther,
	} {
		for _, dev := range []useragent.DeviceType{useragent.Smartphone, useragent.Tablet} {
			syms.Agents.Intern(useragent.Build(useragent.Spec{
				OS: os, Type: dev, Origin: useragent.MobileWeb,
			}))
		}
	}
	return syms
}

// monthIndex converts a calendar month of the trace year into the
// ecosystem's 1-based months-since-Jan-2015 adoption clock.
func monthIndex(year, month int) int {
	return (year-2015)*12 + month
}

func hostOf(rawURL string) string {
	const scheme = "http://"
	s := rawURL
	if len(s) > len(scheme) && s[:len(scheme)] == scheme {
		s = s[len(scheme):]
	}
	for i := 0; i < len(s); i++ {
		if s[i] == '/' || s[i] == '?' {
			return s[:i]
		}
	}
	return s
}

func makeUsers(cfg Config, pop Population, rng *stats.Rand) []User {
	cities := geoip.AllCities()
	cityWeights := make([]float64, len(cities))
	for i, c := range cities {
		cityWeights[i] = c.Weight()
	}
	users := make([]User, cfg.Users)
	for i := range users {
		city := cities[rng.WeightedChoice(cityWeights)]
		os := pop.sampleOS(rng)
		dev := useragent.Smartphone
		if rng.Float64() < pop.TabletShare {
			dev = useragent.Tablet
		}
		value := rng.LogNormal(-0.125, 0.5)
		if rng.Float64() < pop.WhaleShare { // whales, §6.2's ~2% of users
			value *= 8 + rng.Float64()*32
		}
		u := User{
			ID:              i,
			City:            city,
			OS:              os,
			Device:          dev,
			IP:              geoip.AddrFor(city, uint16(i)),
			ValueMultiplier: value,
			SessionsPerDay:  rng.LogNormal(pop.SessionsMu, pop.SessionsSigma),
			AppAffinity:     pop.AppAffinityBase + pop.AppAffinitySpan*rng.Float64(),
			SyncID:          fmt.Sprintf("uid-%08x%08x", rng.Int63()&0xFFFFFFFF, i),
		}
		// The short-circuit keeps bot-free populations (the default)
		// from consuming an extra draw per user.
		if pop.BotShare > 0 && rng.Float64() < pop.BotShare {
			// Automated traffic: many short sessions, almost never
			// in-app, and a value the DMPs heavily discount without
			// zeroing — undetected bots still cost advertisers money,
			// which is exactly what the bot-noise scenario measures.
			u.Bot = true
			u.SessionsPerDay = rng.LogNormal(0.7, 0.4)
			u.AppAffinity = 0.02 + 0.08*rng.Float64()
			u.ValueMultiplier = value * 0.25
		}
		users[i] = u
	}
	return users
}

func isLeap(y int) bool {
	return y%4 == 0 && (y%100 != 0 || y%400 == 0)
}
