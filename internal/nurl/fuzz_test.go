package nurl

import (
	"math"
	"net/url"
	"strings"
	"testing"
)

// fuzzSeeds is the seeded corpus: the paper's Table 1 examples
// (cleartext, encrypted-with-alias, encrypted-with-bid-filter), per
// kind variants, and a spread of malformed/adversarial shapes.
var fuzzSeeds = []string{
	// Cleartext (Table 1A).
	"http://cpp.imp.mpx.mopub.com/imp?ad_domain=amazon.es&ads_creative_id=ID1&" +
		"bid_price=0.99&bidder_name=dsp-x&charge_price=0.95&currency=USD&mopub_id=IMP9&pub_name=elpais",
	// Encrypted via DSP-hosted callback with exchange alias (Table 1B).
	"http://tags.mathtag.com/notify/js?exch=ruc&price=B6A3F3C19F50C7FD&" +
		"3pck=http%3A%2F%2Fbeacon-eu2.rubiconproject.com%2Fbeacon%2Ft%2Fce48666c",
	// Encrypted with a bid-side price to filter (Table 1C).
	"http://adserver-ir-p.mythings.com/ads/admainrtb.aspx?googid=goog&width=300&height=250&" +
		"cmpid=CMP7&mcpm=60&rtbwinprice=VLwbi4K21KFAAAm2ziqnOS_O5oNkFuuJw",
	// Remaining registry entries.
	"http://ib.adnxs.com/ab?cpm=1.2&bp=2.0&member=m1&imp_id=i&auction_id=a",
	"http://ad.turn.com/r/beacon?price=0.33&bid=1&width=320&height=50&imp=i&cmpid=c",
	"http://ad.doubleclick.net/pagead/adview?price=ABCDEF0123456789&bidder=d&sz=300x250&iid=i",
	"http://us-ads.openx.net/w/1.0/rc?wp=DEADBEEFDEADBEEF&dsp=d&size=728x90&auid=a",
	"http://beacon-eu2.rubiconproject.com/beacon/t?p=0123456789ABCDEF&bidder=d&size=160x600",
	"http://tag.contextweb.com/bid/notify?wp=FEEDFACE01234567&bidder=d&w=300&h=600",
	// Malformed and adversarial shapes.
	"",
	"::bad::",
	"http://",
	"//cpp.imp.mpx.mopub.com/imp?charge_price=0.5",
	"http://elpais.es/politica/article.html",
	"http://cpp.imp.mpx.mopub.com/imp?no_price_here=1",
	"http://cpp.imp.mpx.mopub.com/other?charge_price=0.5",
	"http://cpp.imp.mpx.mopub.com/imp?charge_price=abc",
	"http://cpp.imp.mpx.mopub.com/imp?charge_price=-1",
	"http://cpp.imp.mpx.mopub.com/imp?charge_price=NaN",
	"http://cpp.imp.mpx.mopub.com/imp?charge_price=1e400",
	"http://cpp.imp.mpx.mopub.com/imp?charge_price=0.5&charge_price=9.9",
	"http://cpp.imp.mpx.mopub.com/imp?charge_price=0.5&a;b=1&=v&&k",
	"http://cpp.imp.mpx.mopub.com/imp?charge%5Fprice=0.5",
	"http://cpp.imp.mpx.mopub.com/imp?charge_price=0.5&bad=%zz",
	"http://CPP.IMP.MPX.MOPUB.COM/IMP?charge_price=0.5",
	"http://user@cpp.imp.mpx.mopub.com:8080/imp?charge_price=0.5",
	"http://evilmopub.com/imp?charge_price=1.0",
	"http://cpp.imp.mpx.mopub.com/imp#frag?charge_price=0.5",
	"http://cpp.imp.mpx.mopub.com/imp?charge_price=0.5#frag",
	"http://cpp.imp.mpx.mopub.com/imp?charge_price=0.5#%zz",
	"http://cpp.imp.mpx.mopub.com/imp?charge_price=0.5#\x01",
	"http://us[er@cpp.imp.mpx.mopub.com/imp?charge_price=0.5",
	"http://[::1]:80/imp?charge_price=0.5",
	"http://cpp<imp>.mopub.com/imp?charge_price=0.5",
}

// tameURL reports whether raw stays inside the byte set where the span
// parser and the net/url reference are required to agree exactly. The
// excluded bytes (escapes, userinfo, brackets, fragments inside
// queries, semicolons) are where the two lenient parsers may disagree
// on URLs no real notification carries.
func tameURL(raw string) bool {
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		switch {
		case 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9':
		case strings.IndexByte("/:?&=._~-!$'()*,", c) >= 0:
		default:
			return false
		}
	}
	return true
}

// FuzzNURLParse drives the allocation-free span parser with arbitrary
// URLs: it must never panic, must be deterministic, must uphold the
// notification invariants whenever it reports a detection, must split
// every URL it takes as net/url does, and on tame inputs must agree bit
// for bit with the net/url reference implementation (ParseReference).
func FuzzNURLParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	// Build a fuzz entry for every exchange's Build output too.
	reg := Default()
	for _, ex := range reg.Exchanges() {
		f.Add(Build(ex, BuildSpec{
			PriceCPM: 1.75, BidCPM: 2, Token: "AAAABBBBCCCCDDDD",
			DSP: "dsp-y", ADXAlias: "ruc", Width: 320, Height: 50,
			ImpID: "i", AuctionID: "a", Campaign: "c", Publisher: "p", Currency: "usd",
		}))
	}
	f.Fuzz(func(t *testing.T, raw string) {
		p := NewParser(reg)
		n, ok := p.Parse(raw)
		n2, ok2 := p.Parse(raw)
		if ok != ok2 || n != n2 {
			t.Fatalf("non-deterministic parse of %q: %+v/%v vs %+v/%v", raw, n, ok, n2, ok2)
		}
		if ok {
			switch n.Kind {
			case Cleartext:
				if n.PriceCPM < 0 || math.IsNaN(n.PriceCPM) || math.IsInf(n.PriceCPM, 0) {
					t.Fatalf("cleartext price out of domain: %v (%q)", n.PriceCPM, raw)
				}
			case Encrypted:
				if n.Token == "" {
					t.Fatalf("encrypted notification without token (%q)", raw)
				}
			default:
				t.Fatalf("detected notification with kind %v (%q)", n.Kind, raw)
			}
			if n.ADX == "" || n.Host == "" || n.Params < 1 || n.Currency == "" {
				t.Fatalf("incomplete notification %+v (%q)", n, raw)
			}
		}
		// Whatever SplitURL takes, net/url takes with the same host,
		// path and query: callers fall back to net/url only on !ok.
		if host, path, query, ok := SplitURL(raw); ok {
			u, err := url.Parse(raw)
			if err != nil || u.Hostname() != host || u.Path != UnescapePath(path) || u.RawQuery != query {
				t.Fatalf("SplitURL(%q) = %q, %q, %q; net/url: %+v, %v", raw, host, path, query, u, err)
			}
		}
		if tameURL(raw) {
			sn, sok := reg.ParseReference(raw)
			if ok != sok || n != sn {
				t.Fatalf("span parser diverged from net/url reference on %q:\n fast %+v ok=%v\n slow %+v ok=%v",
					raw, n, ok, sn, sok)
			}
		}
	})
}
