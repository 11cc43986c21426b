package nurl

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"yourandvalue/internal/priceenc"
)

// TestTable1A parses the paper's first example: a MoPub cleartext
// notification with both bid_price and charge_price. The bid price must be
// filtered out; only the charge price (0.95) is the auction's cost.
func TestTable1A(t *testing.T) {
	raw := "http://cpp.imp.mpx.mopub.com/imp?ad_domain=amazon.es&" +
		"ads_creative_id=ID1&bid_price=0.99&bidder_id=ID2&bidder_name=dsp-x" +
		"&charge_price=0.95&country=ES&currency=USD&latency=0.116&mopub_id=IMP9&pub_name=elpais"
	n, ok := Default().Parse(raw)
	if !ok {
		t.Fatal("Table 1(A) nURL not detected")
	}
	if n.ADX != "MoPub" || n.Kind != Cleartext {
		t.Fatalf("n = %+v", n)
	}
	if n.PriceCPM != 0.95 {
		t.Errorf("price = %v, want 0.95 (charge, not the 0.99 bid)", n.PriceCPM)
	}
	if n.DSP != "dsp-x" || n.ImpID != "IMP9" || n.Publisher != "elpais" {
		t.Errorf("metadata = %+v", n)
	}
	if n.Currency != "USD" {
		t.Errorf("currency = %q", n.Currency)
	}
	if n.Campaign != "ID1" {
		t.Errorf("campaign = %q", n.Campaign)
	}
}

// TestTable1B parses the MathTag (MediaMath) encrypted example with the
// Rubicon exchange alias and a partner beacon.
func TestTable1B(t *testing.T) {
	raw := "http://tags.mathtag.com/notify/js?exch=ruc&price=B6A3F3C19F50C7FD&" +
		"3pck=http%3A%2F%2Fbeacon-eu2.rubiconproject.com%2Fbeacon%2Ft%2Fce48666c"
	n, ok := Default().Parse(raw)
	if !ok {
		t.Fatal("Table 1(B) nURL not detected")
	}
	if n.Kind != Encrypted {
		t.Fatalf("kind = %v", n.Kind)
	}
	if n.Token != "B6A3F3C19F50C7FD" {
		t.Errorf("token = %q", n.Token)
	}
	if n.ADX != "Rubicon" {
		t.Errorf("ADX = %q, want Rubicon via exch=ruc alias", n.ADX)
	}
	if n.DSP != "mathtag" {
		t.Errorf("DSP = %q, want mathtag (host is the DSP)", n.DSP)
	}
}

// TestTable1C parses the myThings example: mcpm=60 is a bid-side maximum
// that must NOT be taken as the price; rtbwinprice is the encrypted charge.
func TestTable1C(t *testing.T) {
	raw := "http://adserver-ir-p.mythings.com/ads/admainrtb.aspx?googid=goog&" +
		"width=300&height=250&cmpid=CMP7&gid=G1&mcpm=60&" +
		"rtbwinprice=VLwbi4K21KFAAAm2ziqnOS_O5oNkFuuJw"
	n, ok := Default().Parse(raw)
	if !ok {
		t.Fatal("Table 1(C) nURL not detected")
	}
	if n.Kind != Encrypted || !strings.HasPrefix(n.Token, "VLwbi4") {
		t.Fatalf("n = %+v", n)
	}
	if n.Width != 300 || n.Height != 250 {
		t.Errorf("slot = %dx%d", n.Width, n.Height)
	}
	if n.Campaign != "CMP7" {
		t.Errorf("campaign = %q", n.Campaign)
	}
	if n.ADX != "DoubleClick" {
		t.Errorf("ADX = %q, want DoubleClick via googid alias", n.ADX)
	}
}

func TestNonNotificationURLs(t *testing.T) {
	r := Default()
	for _, raw := range []string{
		"http://elpais.es/politica/article.html",
		"http://cpp.imp.mpx.mopub.com/imp?no_price_here=1",
		"http://cpp.imp.mpx.mopub.com/other?charge_price=0.5", // wrong path
		"http://cpp.imp.mpx.mopub.com/imp?charge_price=abc",   // non-numeric cleartext
		"http://cpp.imp.mpx.mopub.com/imp?charge_price=-1",    // negative
		"", "::bad::",
	} {
		if r.IsNotification(raw) {
			t.Errorf("IsNotification(%q) = true", raw)
		}
	}
}

func TestHostSuffixBoundaries(t *testing.T) {
	r := Default()
	if r.IsNotification("http://evilmopub.com/imp?charge_price=1.0") {
		t.Error("evilmopub.com matched mopub.com suffix")
	}
	if !r.IsNotification("http://cpp.imp.mpx.mopub.com/imp?charge_price=1.0") {
		t.Error("legit subdomain did not match")
	}
}

func TestEncryptedTokenForms(t *testing.T) {
	r := Default()
	scheme := priceenc.MustNew([]byte("k1k1k1k1k1k1k1k1"), []byte("k2k2k2k2k2k2k2k2"))
	iv := make([]byte, priceenc.IVSize)
	tok, err := scheme.Encrypt(1.25, iv)
	if err != nil {
		t.Fatal(err)
	}
	n, ok := r.Parse("http://ad.doubleclick.net/pagead/adview?price=" + tok + "&sz=300x250")
	if !ok || n.Kind != Encrypted {
		t.Fatalf("28-byte token not detected: %+v ok=%v", n, ok)
	}
	if n.Width != 300 || n.Height != 250 {
		t.Errorf("sz parsing: %dx%d", n.Width, n.Height)
	}
}

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		w, h int
	}{
		{"300x250", 300, 250}, {"728X90", 0, 0}, // capital X only via ToLower index: verify
		{"x250", 0, 0}, {"300x", 0, 0}, {"", 0, 0}, {"axb", 0, 0}, {"-3x5", 0, 0},
	}
	for _, c := range cases {
		w, h := parseSize(c.in)
		if c.in == "728X90" {
			// Uppercase X is located case-insensitively; digits parse fine.
			if w != 728 || h != 90 {
				t.Errorf("parseSize(728X90) = %dx%d", w, h)
			}
			continue
		}
		if w != c.w || h != c.h {
			t.Errorf("parseSize(%q) = %dx%d, want %dx%d", c.in, w, h, c.w, c.h)
		}
	}
}

func TestSlotSize(t *testing.T) {
	if SlotSize(300, 250) != "300x250" {
		t.Error("SlotSize format")
	}
}

func TestBuildParseRoundTripAllExchanges(t *testing.T) {
	r := Default()
	scheme := priceenc.MustNew([]byte("enc-key-roundtrip"), []byte("sig-key-roundtrip"))
	iv := make([]byte, priceenc.IVSize)
	tok, _ := scheme.Encrypt(2.5, iv)

	for _, ex := range r.Exchanges() {
		spec := BuildSpec{
			PriceCPM: 1.75, BidCPM: 2.0,
			DSP: "dsp-y", ADXAlias: "ruc",
			Width: 320, Height: 50,
			ImpID: "imp-1", AuctionID: "auc-1", Campaign: "cmp-1",
			Publisher: "pub-1", Currency: "USD",
		}
		if ex.Encrypts {
			spec.Token = tok
		}
		raw := Build(ex, spec)
		n, ok := r.Parse(raw)
		if !ok {
			t.Errorf("%s: built nURL not parsed: %s", ex.Name, raw)
			continue
		}
		if ex.Encrypts {
			if n.Kind != Encrypted || n.Token != tok {
				t.Errorf("%s: kind/token = %v/%q", ex.Name, n.Kind, n.Token)
			}
		} else {
			if n.Kind != Cleartext || n.PriceCPM != 1.75 {
				t.Errorf("%s: price = %v (bid must be filtered)", ex.Name, n.PriceCPM)
			}
		}
		if ex.WidthParam != "" || ex.SizeParam != "" {
			if n.Width != 320 || n.Height != 50 {
				t.Errorf("%s: slot = %dx%d", ex.Name, n.Width, n.Height)
			}
		}
	}
}

func TestBuildParsePriceProperty(t *testing.T) {
	r := Default()
	mopub, ok := r.FindByName("MoPub")
	if !ok {
		t.Fatal("MoPub missing from registry")
	}
	f := func(milli uint32) bool {
		cpm := float64(milli%100000) / 1000 // 0 .. 99.999
		raw := Build(mopub, BuildSpec{PriceCPM: cpm})
		n, ok := r.Parse(raw)
		return ok && n.Kind == Cleartext && math.Abs(n.PriceCPM-cpm) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPairChannelFlip exercises the §2.4 scenario: the same exchange emits
// cleartext for one DSP pair and encrypted for another, and the parser
// classifies each by value shape.
func TestPairChannelFlip(t *testing.T) {
	r := Default()
	mopub, _ := r.FindByName("MoPub")
	rubicon, _ := r.FindByName("Rubicon")

	clr := Build(mopub, BuildSpec{PriceCPM: 0.8})
	n, ok := r.Parse(clr)
	if !ok || n.Kind != Cleartext {
		t.Fatalf("mopub cleartext: %+v ok=%v", n, ok)
	}
	// MoPub pair that adopted encryption.
	encOnMopub := Build(mopub, BuildSpec{Token: "AAAABBBBCCCCDDDD"})
	n, ok = r.Parse(encOnMopub)
	if !ok || n.Kind != Encrypted {
		t.Fatalf("mopub encrypted pair: %+v ok=%v", n, ok)
	}
	// Rubicon pair still on cleartext.
	clrOnRubicon := Build(rubicon, BuildSpec{PriceCPM: 1.1})
	n, ok = r.Parse(clrOnRubicon)
	if !ok || n.Kind != Cleartext || n.PriceCPM != 1.1 {
		t.Fatalf("rubicon cleartext pair: %+v ok=%v", n, ok)
	}
}

func TestRegistryCustomExchange(t *testing.T) {
	r := NewRegistry()
	if r.Len() != 0 {
		t.Fatal("new registry not empty")
	}
	r.Add(Exchange{
		Name: "TinyADX", HostSuffix: "tinyadx.example",
		PriceParam: "win", DSPParam: "d",
	})
	n, ok := r.Parse("http://n.tinyadx.example/cb?win=0.42&d=dspZ")
	if !ok || n.PriceCPM != 0.42 || n.DSP != "dspZ" {
		t.Fatalf("custom exchange parse: %+v ok=%v", n, ok)
	}
}

func TestLooksEncrypted(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		{"B6A3F3C19F50C7FD", true},                  // 16 hex chars
		{"VLwbi4K21KFAAAm2ziqnOS_O5oNkFuuJw", true}, // long websafe base64
		{"0.95", false},
		{"123456", false}, // hex-plausible but too short
		{"", false},
		{"hello world!", false},
		{"1234567890123456", true}, // 16 digits are valid hex
	}
	for _, c := range cases {
		if got := looksEncrypted(c.in); got != c.want {
			t.Errorf("looksEncrypted(%q) = %v", c.in, got)
		}
	}
}

func TestPriceKindString(t *testing.T) {
	if Cleartext.String() != "cleartext" || Encrypted.String() != "encrypted" ||
		NoPrice.String() != "none" {
		t.Error("kind strings")
	}
}

func TestParamCount(t *testing.T) {
	raw := "http://cpp.imp.mpx.mopub.com/imp?charge_price=1&a=1&b=2&c=3"
	n, ok := Default().Parse(raw)
	if !ok || n.Params != 4 {
		t.Errorf("params = %d, want 4", n.Params)
	}
}
