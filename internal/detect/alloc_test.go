package detect_test

import (
	"testing"
	"time"

	"yourandvalue/internal/core"
	"yourandvalue/internal/detect"
	"yourandvalue/internal/geoip"
	"yourandvalue/internal/mlkit"
	"yourandvalue/internal/nurl"
)

// allocModel trains a tiny but real forest over the standard S layout,
// so the alloc tests exercise the genuine estimate path.
func allocModel(tb testing.TB) *core.Model {
	tb.Helper()
	feats := core.NewSFeatures(nil)
	var X [][]float64
	var prices []float64
	for i := 0; i < 80; i++ {
		v := make([]float64, feats.Dim())
		feats.EncodeStringsInto(v, core.StringContext{
			City: geoip.City(1 + i%10).String(),
			ADX:  detect.ADXVocabulary[i%len(detect.ADXVocabulary)],
			Slot: "300x250", Hour: i % 24, Weekday: i % 7,
			OS: "Android", Device: "Smartphone", Origin: "web", IAB: "IAB12",
		})
		X = append(X, v)
		prices = append(prices, 0.25+float64(i%16)*0.35)
	}
	binner, err := mlkit.NewBinner(prices, 4)
	if err != nil {
		tb.Fatal(err)
	}
	forest, err := mlkit.TrainForest(X, binner.Labels(prices), binner.Classes(),
		mlkit.ForestConfig{Trees: 8, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	m := (&core.Model{Features: feats}).Retrained(binner, forest, X)
	m.Version = 1
	return m
}

const (
	allocPageURL = "http://elpais.es/"
	allocClrURL  = "http://cpp.imp.mpx.mopub.com/imp?ad_domain=elpais.es&bid_price=0.99&" +
		"bidder_name=dsp-x&charge_price=0.95&currency=USD&mopub_id=IMP9&pub_name=elpais"
	allocEncURL = "http://ad.doubleclick.net/pagead/adview?bidder=dsp-y&iid=I77&" +
		"price=B6A3F3C19F50C7FD&sz=300x250"
	allocUA = "Mozilla/5.0 (Linux; Android 6.0; SM-G920F Build/LRX22G) AppleWebKit/537.36 Mobile"
)

func allocRecords() (page, clr, enc detect.Record) {
	ts := time.Date(2015, 7, 14, 19, 30, 0, 0, time.UTC)
	ip := geoip.AddrFor(geoip.Madrid, 4)
	page = detect.Record{Time: ts, UserID: 7, URL: allocPageURL,
		Host: "elpais.es", UserAgent: allocUA, ClientIP: ip}
	clr = detect.Record{Time: ts.Add(time.Second), UserID: 7, URL: allocClrURL,
		Host: "cpp.imp.mpx.mopub.com", UserAgent: allocUA, ClientIP: ip}
	enc = detect.Record{Time: ts.Add(2 * time.Second), UserID: 7, URL: allocEncURL,
		Host: "ad.doubleclick.net", UserAgent: allocUA, ClientIP: ip}
	return page, clr, enc
}

// TestNURLParseZeroAlloc locks the warm notification parse to zero heap
// allocations, for both cleartext and encrypted prices.
func TestNURLParseZeroAlloc(t *testing.T) {
	p := nurl.NewParser(nurl.Default())
	for _, raw := range []string{allocClrURL, allocEncURL} {
		if _, ok := p.Parse(raw); !ok {
			t.Fatalf("corpus URL did not parse: %s", raw)
		}
		if a := testing.AllocsPerRun(200, func() {
			if _, ok := p.Parse(raw); !ok {
				t.Fatal("parse regressed")
			}
		}); a != 0 {
			t.Errorf("warm Parse(%s) allocates %v times per run, want 0", raw, a)
		}
	}
}

// TestEncodeIntoZeroAlloc locks the warm S-vector encode to zero heap
// allocations.
func TestEncodeIntoZeroAlloc(t *testing.T) {
	eng := detect.NewEngine(detect.Config{})
	page, _, enc := allocRecords()
	eng.Step(page)
	em := eng.Step(enc)
	if !em.Detected {
		t.Fatal("corpus notification not detected")
	}
	encdr := detect.NewEncoder(nil)
	vec := make([]float64, encdr.Dim())
	if a := testing.AllocsPerRun(200, func() {
		encdr.EncodeInto(vec, em.Impression)
	}); a != 0 {
		t.Errorf("warm EncodeInto allocates %v times per run, want 0", a)
	}
}

// TestDetectEstimatePathZeroAlloc locks the full warm per-impression
// path — engine step (classify, parse, attribute), scratch-buffer
// encode, and model estimate — to zero heap allocations, the property
// the million-user streaming north star depends on.
func TestDetectEstimatePathZeroAlloc(t *testing.T) {
	model := allocModel(t)
	eng := detect.NewEngine(detect.Config{})
	vec := make([]float64, model.Features.Dim())
	page, clr, enc := allocRecords()

	step := func(rec detect.Record) {
		em := eng.Step(rec)
		if em.Detected {
			model.Features.EncodeImpressionInto(vec, em.Impression)
			if cpm := model.EstimateCPM(vec); cpm < 0 {
				t.Fatal("negative estimate")
			}
		}
	}
	// Warm every cache: page attribution, host classes, UA, geo, parser.
	step(page)
	step(clr)
	step(enc)

	for name, rec := range map[string]detect.Record{
		"page-view": page, "cleartext": clr, "encrypted": enc,
	} {
		if a := testing.AllocsPerRun(200, func() { step(rec) }); a != 0 {
			t.Errorf("%s: warm detect+estimate path allocates %v times per run, want 0", name, a)
		}
	}
}
