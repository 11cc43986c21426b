package nurl

import (
	"net/url"
	"strconv"
	"testing"
)

// buildWithValues is the url.Values form of Build: every parameter goes
// through url.Values.Set, and the URL through url.Values.Encode and
// url.URL.String. Build must render the same bytes.
func buildWithValues(ex Exchange, spec BuildSpec) string {
	q := url.Values{}
	if spec.Token != "" {
		q.Set(ex.PriceParam, spec.Token)
	} else {
		q.Set(ex.PriceParam, strconv.FormatFloat(spec.PriceCPM, 'f', -1, 64))
	}
	if spec.BidCPM > 0 && len(ex.BidParams) > 0 {
		q.Set(ex.BidParams[0], strconv.FormatFloat(spec.BidCPM, 'f', -1, 64))
	}
	if ex.DSPParam != "" && spec.DSP != "" {
		q.Set(ex.DSPParam, spec.DSP)
	}
	if ex.ADXParam != "" && spec.ADXAlias != "" {
		q.Set(ex.ADXParam, spec.ADXAlias)
	}
	switch {
	case ex.WidthParam != "" && spec.Width > 0:
		q.Set(ex.WidthParam, strconv.Itoa(spec.Width))
		if ex.HeightParam != "" {
			q.Set(ex.HeightParam, strconv.Itoa(spec.Height))
		}
	case ex.SizeParam != "" && spec.Width > 0:
		q.Set(ex.SizeParam, SlotSize(spec.Width, spec.Height))
	}
	if ex.ImpParam != "" && spec.ImpID != "" {
		q.Set(ex.ImpParam, spec.ImpID)
	}
	if ex.AuctionParam != "" && spec.AuctionID != "" {
		q.Set(ex.AuctionParam, spec.AuctionID)
	}
	if ex.CampaignParam != "" && spec.Campaign != "" {
		q.Set(ex.CampaignParam, spec.Campaign)
	}
	if ex.PublisherParam != "" && spec.Publisher != "" {
		q.Set(ex.PublisherParam, spec.Publisher)
	}
	if spec.Currency != "" {
		q.Set("currency", spec.Currency)
	}
	u := url.URL{
		Scheme:   "http",
		Host:     notificationHost(ex),
		Path:     notificationPath(ex),
		RawQuery: q.Encode(),
	}
	return u.String()
}

func TestBuildMatchesURLValues(t *testing.T) {
	exchanges := Default().Exchanges()
	// Descriptors whose parameters collide, so a later set overwrites an
	// earlier one: the spec's currency onto an exchange parameter
	// literally named "currency", and the ADX alias onto the DSP
	// parameter.
	for _, ex := range Default().Exchanges() {
		ex.Name += "-currency"
		ex.CampaignParam = "currency"
		ex.PublisherParam = "currency"
		exchanges = append(exchanges, ex)
		ex.Name += "-adx"
		ex.DSPParam = "dsp"
		ex.ADXParam = "dsp"
		exchanges = append(exchanges, ex)
	}
	specs := []BuildSpec{
		{},
		{PriceCPM: 1},
		{PriceCPM: 1.75, BidCPM: 2, DSP: "dsp-y", ADXAlias: "ruc",
			Width: 320, Height: 50, ImpID: "imp-1", AuctionID: "auc-1",
			Campaign: "cmp-1", Publisher: "pub-1", Currency: "USD"},
		{Token: "AAAABBBBCCCCDDDD-_==", PriceCPM: 3, Width: 300, Height: 250, Currency: "EUR"},
		{PriceCPM: 0.000123456789, BidCPM: 1e-9, Width: 728},
		{PriceCPM: -2.5, DSP: "a b&c=d", ADXAlias: "ñ/?#%", ImpID: "x+y",
			AuctionID: "1;2", Campaign: "c\x00\xff", Publisher: "www.example.com/path?q=1",
			Currency: "U S D"},
		{PriceCPM: 12345678.9, Campaign: "camp", Publisher: "pub"},
	}
	for _, ex := range exchanges {
		for i, spec := range specs {
			got, want := Build(ex, spec), buildWithValues(ex, spec)
			if got != want {
				t.Errorf("%s spec %d:\n got %s\nwant %s", ex.Name, i, got, want)
			}
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	mopub, _ := Default().FindByName("MoPub")
	spec := BuildSpec{PriceCPM: 1.75, BidCPM: 2, DSP: "dsp-y", Width: 320, Height: 50,
		ImpID: "imp-1", AuctionID: "auc-1", Campaign: "cmp-1", Publisher: "pub-1", Currency: "USD"}
	b.ReportAllocs()
	for b.Loop() {
		Build(mopub, spec)
	}
}
