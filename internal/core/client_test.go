package core

import (
	"math"
	"testing"
	"time"

	"yourandvalue/internal/analyzer"
	"yourandvalue/internal/geoip"
	"yourandvalue/internal/weblog"
)

// closeTo reports whether two sums agree within 1e-9, relative to their
// size, so a different summation order still compares equal.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

// TestClientMatchesBatchEstimate pins the §3.3 client to the analysis:
// a fresh Client over each user's own requests reports the same counts,
// cleartext sum and encrypted sum as BatchEstimate on the same model,
// and the same cleartext sum as the analyzer, for every user.
func TestClientMatchesBatchEstimate(t *testing.T) {
	f := pipeline(t)
	dir := f.trace.Catalog.Directory()
	costs := BatchEstimate(f.res, f.model)
	byUser := make(map[int][]weblog.Request)
	for _, r := range f.trace.Requests {
		byUser[r.UserID] = append(byUser[r.UserID], r)
	}
	if len(byUser) == 0 {
		t.Fatal("trace has no users")
	}
	for id, reqs := range byUser {
		c := NewClient(f.model, dir)
		for _, r := range reqs {
			c.Process(r)
		}
		got := c.Totals()
		want := costs[id]
		if want == nil {
			want = &UserCost{UserID: id}
		}
		if got.CleartextCount != want.CleartextCount || got.EncryptedCount != want.EncryptedCount {
			t.Errorf("user %d: counts %d/%d, BatchEstimate %d/%d", id,
				got.CleartextCount, got.EncryptedCount, want.CleartextCount, want.EncryptedCount)
		}
		if !closeTo(got.CleartextCPM, want.CleartextCPM) || !closeTo(got.EncryptedCPM, want.EncryptedCPM) {
			t.Errorf("user %d: sums %v/%v, BatchEstimate %v/%v", id,
				got.CleartextCPM, got.EncryptedCPM, want.CleartextCPM, want.EncryptedCPM)
		}
		var analyzed float64
		if u := f.res.Users[id]; u != nil {
			analyzed = u.CleartextSum
		}
		if !closeTo(got.CleartextCPM, analyzed) {
			t.Errorf("user %d: cleartext %v, analyzer %v", id, got.CleartextCPM, analyzed)
		}
	}
}

// TestClientAttributesPerUser feeds one Client two interleaved users. A
// notification before the user's first page view is attributed to the
// publisher its nURL carries, and another user's page view does not
// leak into the first user's attribution; both are what the analyzer
// does, so the client's events equal its estimates.
func TestClientAttributesPerUser(t *testing.T) {
	f := pipeline(t)
	dir := f.trace.Catalog.Directory()
	t0 := time.Date(2015, 6, 3, 10, 0, 0, 0, time.UTC)
	const ua = "Mozilla/5.0 (Linux; Android 6.0; SM-G920F Build/LRX22G) Mobile"
	notif := func(user uint16, at time.Duration, pub string) weblog.Request {
		return weblog.Request{
			Time: t0.Add(at), UserID: int(user), Host: "ad.doubleclick.net", UserAgent: ua,
			URL:      "http://ad.doubleclick.net/adview?price=B6A3F3C19F50C7FD&bidder=dsp-x&sz=300x250&ad_domain=" + pub,
			ClientIP: geoip.AddrFor(geoip.Madrid, user),
		}
	}
	view := func(user uint16, at time.Duration, host string) weblog.Request {
		return weblog.Request{
			Time: t0.Add(at), UserID: int(user), Host: host, UserAgent: ua,
			URL: "http://" + host + "/", ClientIP: geoip.AddrFor(geoip.Madrid, user),
		}
	}
	// estimate prices the first test notification as if attributed to pub.
	estimate := func(pub string) float64 {
		res := analyzer.New(dir).Analyze([]weblog.Request{notif(1, 0, pub)})
		if len(res.Impressions) != 1 {
			t.Fatalf("notification for %q not detected", pub)
		}
		imp := res.Impressions[0]
		imp.Publisher, imp.Category = pub, dir.Lookup(pub)
		return EstimateImpression(f.model, imp)
	}
	// Pick the nURL's publisher and the other user's page so that each
	// wrong attribution (none, or the other user's page) changes the
	// estimate, which makes the case discriminating.
	var pub, page string
	sites := f.trace.Catalog.Sites
	for _, p := range sites {
		if estimate(p.Domain) != estimate("") {
			pub = p.Domain
			break
		}
	}
	for _, p := range sites {
		if pub != "" && estimate(p.Domain) != estimate(pub) {
			page = p.Domain
			break
		}
	}
	if pub == "" || page == "" {
		t.Fatal("no catalog sites the model prices differently")
	}

	reqs := []weblog.Request{
		notif(1, 0, pub),           // user 1: before any page view
		view(2, time.Second, page), // user 2's page view
		notif(1, 2*time.Second, pub),
		notif(2, 3*time.Second, pub), // user 2: attributed to its page
	}
	c := NewClient(f.model, dir)
	for _, r := range reqs {
		c.Process(r)
	}
	res := analyzer.New(dir).Analyze(reqs)
	evs := c.Events()
	if len(evs) != 3 || len(res.Impressions) != 3 {
		t.Fatalf("client %d events, analyzer %d impressions; want 3", len(evs), len(res.Impressions))
	}
	for i, want := range []float64{estimate(pub), estimate(pub), estimate(page)} {
		if evs[i].CPM != want {
			t.Errorf("event %d: CPM %v, want %v", i, evs[i].CPM, want)
		}
	}
	var sum float64
	for _, uc := range BatchEstimate(res, f.model) {
		sum += uc.EncryptedCPM
	}
	if got := c.Totals().EncryptedCPM; !closeTo(got, sum) {
		t.Errorf("client encrypted %v, BatchEstimate %v", got, sum)
	}
}

// TestClientCompactModelMatchesJSON: the §3.3 client loads the compact
// blob; over the whole trace its totals and event history equal, bit for
// bit, those of a client over the trained model itself.
func TestClientCompactModelMatchesJSON(t *testing.T) {
	f := pipeline(t)
	blob, err := f.model.EncodeCompact()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeCompactModel(blob)
	if err != nil {
		t.Fatal(err)
	}
	dir := f.trace.Catalog.Directory()
	a, b := NewClient(f.model, dir), NewClient(decoded, dir)
	for _, r := range f.trace.Requests {
		a.Process(r)
		b.Process(r)
	}
	if a.Totals() != b.Totals() {
		t.Fatalf("totals: trained %+v, compact %+v", a.Totals(), b.Totals())
	}
	if a.Totals().EncryptedCount == 0 {
		t.Fatal("no encrypted estimates compared")
	}
	ea, eb := a.Events(), b.Events()
	if len(ea) != len(eb) {
		t.Fatalf("events: trained %d, compact %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("event %d: trained %+v, compact %+v", i, ea[i], eb[i])
		}
	}
}
