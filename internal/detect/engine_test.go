package detect_test

import (
	"testing"
	"time"

	"yourandvalue/internal/detect"
	"yourandvalue/internal/geoip"
	"yourandvalue/internal/nurl"
	"yourandvalue/internal/trafficclass"
	"yourandvalue/internal/useragent"
	"yourandvalue/internal/weblog"
)

// TestEngineMatchesLegacyPath replays a generated trace through the
// engine and through the historical inline path — uncached
// classification, net/url-backed nURL parsing, per-request geocoding
// and UA parsing, as each consumer used to inline it — asserting identical results request by request.
func TestEngineMatchesLegacyPath(t *testing.T) {
	cfg := weblog.DefaultConfig().Scaled(0.01)
	cfg.Seed = 11
	trace := weblog.Generate(cfg)
	dir := trace.Catalog.Directory()

	eng := detect.NewEngine(detect.Config{Directory: dir})
	registry := nurl.Default()
	classifier := trafficclass.DefaultClassifier()
	geo := geoip.Default()
	lastPage := make(map[int]string)

	impressions := 0
	for _, r := range trace.Requests {
		em := eng.Step(r.Detect())

		class := classifier.Classify(r.Host)
		if em.Class != class {
			t.Fatalf("class mismatch on %s: %v vs %v", r.Host, em.Class, class)
		}
		if city := geo.LookupString(r.ClientIP); em.City != city {
			t.Fatalf("city mismatch on %s: %v vs %v", r.ClientIP, em.City, city)
		}
		switch class {
		case trafficclass.Rest:
			lastPage[r.UserID] = r.Host
			if !em.PageView || em.Category != dir.Lookup(r.Host) {
				t.Fatalf("page-view emission mismatch on %s", r.Host)
			}
		case trafficclass.Advertising:
			n, ok := registry.Parse(r.URL)
			if ok != em.Detected {
				t.Fatalf("detection mismatch on %s", r.URL)
			}
			if !ok {
				continue
			}
			impressions++
			pub := lastPage[r.UserID]
			if pub == "" {
				pub = n.Publisher
			}
			want := detect.Impression{
				Time:         r.Time,
				Month:        int(r.Time.Month()),
				UserID:       r.UserID,
				Notification: n,
				City:         geo.LookupString(r.ClientIP),
				Device:       useragent.Parse(r.UserAgent),
				Publisher:    pub,
				Category:     dir.Lookup(pub),
			}
			if em.Impression != want {
				t.Fatalf("impression mismatch:\n got %+v\nwant %+v", em.Impression, want)
			}
		}
	}
	if impressions == 0 {
		t.Fatal("trace produced no impressions")
	}
}

// TestEngineStringFallback: hand-built records without symbols must
// take the string-keyed caches and produce the same results.
func TestEngineStringFallback(t *testing.T) {
	eng := detect.NewEngine(detect.Config{})
	ts := time.Date(2015, 6, 7, 14, 0, 0, 0, time.UTC)
	page := detect.Record{
		Time: ts, UserID: 3, Host: "elpais.es",
		URL: "http://elpais.es/", ClientIP: geoip.AddrFor(geoip.Madrid, 9),
	}
	if em := eng.Step(page); !em.PageView || em.City != geoip.Madrid {
		t.Fatalf("page view emission: %+v", em)
	}
	notif := detect.Record{
		Time: ts.Add(time.Second), UserID: 3, Host: "cpp.imp.mpx.mopub.com",
		URL:       "http://cpp.imp.mpx.mopub.com/imp?charge_price=0.95&bidder_name=dsp-x",
		UserAgent: "Mozilla/5.0 (Linux; Android 6.0; SM-G920F Build/LRX22G) Mobile",
		ClientIP:  geoip.AddrFor(geoip.Madrid, 9),
	}
	em := eng.Step(notif)
	if !em.Detected {
		t.Fatal("notification not detected")
	}
	imp := em.Impression
	if imp.Publisher != "elpais.es" || imp.Notification.PriceCPM != 0.95 ||
		imp.City != geoip.Madrid || imp.Device.OS != useragent.Android {
		t.Fatalf("impression: %+v", imp)
	}
	// Repeat steps hit the warm caches and must agree.
	if em2 := eng.Step(notif); em2.Impression != imp {
		t.Fatal("warm step diverged from cold step")
	}
	// Attribution is per user: another user with no page view and no
	// nURL-carried publisher falls back to empty.
	other := notif
	other.UserID = 4
	if em3 := eng.Step(other); em3.Impression.Publisher != "" {
		t.Fatalf("attribution leaked across users: %+v", em3.Impression)
	}
}
