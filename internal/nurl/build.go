package nurl

import (
	"net/url"
	"slices"
	"strconv"
	"strings"
)

// BuildSpec carries the fields an ADX embeds when issuing a notification.
// The RTB simulator renders these through the same Exchange descriptors
// the parser consumes, so generation and detection cannot drift apart.
type BuildSpec struct {
	PriceCPM  float64 // cleartext charge price
	Token     string  // encrypted charge price token (used when Exchange.Encrypts)
	BidCPM    float64 // losing/submitted bid price, emitted in BidParams[0] if set
	DSP       string
	ADXAlias  string // value for ADXParam on DSP-hosted callbacks
	Width     int
	Height    int
	ImpID     string
	AuctionID string
	Campaign  string
	Publisher string
	Currency  string
}

// query is a notification's parameter list: at most one value per key,
// a later set of a key overwriting the earlier value. Build sets at most
// 11 keys.
type query struct {
	kv [12][2]string
	n  int
}

func (q *query) set(k, v string) {
	for i := range q.n {
		if q.kv[i][0] == k {
			q.kv[i][1] = v
			return
		}
	}
	q.kv[q.n] = [2]string{k, v}
	q.n++
}

// Build renders a notification URL for the exchange. The scheme is http,
// matching the 2015-era mobile traffic of dataset D. Host and path are
// written as the descriptor gives them; the query is sorted by key and
// escaped with url.QueryEscape, byte for byte what url.Values.Encode
// gives for the same parameters.
func Build(ex Exchange, spec BuildSpec) string {
	var q query
	// Format follows the pair's channel, not the exchange's default: a
	// token renders encrypted, otherwise the numeric CPM is emitted.
	if spec.Token != "" {
		q.set(ex.PriceParam, spec.Token)
	} else {
		q.set(ex.PriceParam, strconv.FormatFloat(spec.PriceCPM, 'f', -1, 64))
	}
	if spec.BidCPM > 0 && len(ex.BidParams) > 0 {
		q.set(ex.BidParams[0], strconv.FormatFloat(spec.BidCPM, 'f', -1, 64))
	}
	if ex.DSPParam != "" && spec.DSP != "" {
		q.set(ex.DSPParam, spec.DSP)
	}
	if ex.ADXParam != "" && spec.ADXAlias != "" {
		q.set(ex.ADXParam, spec.ADXAlias)
	}
	switch {
	case ex.WidthParam != "" && spec.Width > 0:
		q.set(ex.WidthParam, strconv.Itoa(spec.Width))
		if ex.HeightParam != "" {
			q.set(ex.HeightParam, strconv.Itoa(spec.Height))
		}
	case ex.SizeParam != "" && spec.Width > 0:
		q.set(ex.SizeParam, SlotSize(spec.Width, spec.Height))
	}
	if ex.ImpParam != "" && spec.ImpID != "" {
		q.set(ex.ImpParam, spec.ImpID)
	}
	if ex.AuctionParam != "" && spec.AuctionID != "" {
		q.set(ex.AuctionParam, spec.AuctionID)
	}
	if ex.CampaignParam != "" && spec.Campaign != "" {
		q.set(ex.CampaignParam, spec.Campaign)
	}
	if ex.PublisherParam != "" && spec.Publisher != "" {
		q.set(ex.PublisherParam, spec.Publisher)
	}
	if spec.Currency != "" {
		q.set("currency", spec.Currency)
	}
	kv := q.kv[:q.n]
	slices.SortStableFunc(kv, func(a, b [2]string) int { return strings.Compare(a[0], b[0]) })

	host, path := notificationHost(ex), notificationPath(ex)
	size := len("http://") + len(host) + len(path)
	for i := range kv {
		kv[i][0], kv[i][1] = url.QueryEscape(kv[i][0]), url.QueryEscape(kv[i][1])
		size += len(kv[i][0]) + len(kv[i][1]) + 2
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteString("http://")
	b.WriteString(host)
	b.WriteString(path)
	for i, p := range kv {
		if i == 0 {
			b.WriteByte('?')
		} else {
			b.WriteByte('&')
		}
		b.WriteString(p[0])
		b.WriteByte('=')
		b.WriteString(p[1])
	}
	return b.String()
}

// notificationHost returns the concrete callback host for an exchange,
// prepending the conventional subdomain used by each entity.
func notificationHost(ex Exchange) string {
	switch ex.Name {
	case "MoPub":
		return "cpp.imp.mpx." + ex.HostSuffix
	case "AppNexus":
		return "ib." + ex.HostSuffix
	case "Turn":
		return "ad." + ex.HostSuffix
	case "DoubleClick":
		return "ad." + ex.HostSuffix
	case "OpenX":
		return "us-ads." + ex.HostSuffix
	case "Rubicon":
		return "beacon-eu2." + ex.HostSuffix
	case "PulsePoint":
		return "tag." + ex.HostSuffix
	case "MediaMath":
		return "tags." + ex.HostSuffix
	case "myThings":
		return "adserver-ir-p." + ex.HostSuffix
	default:
		return ex.HostSuffix
	}
}

func notificationPath(ex Exchange) string {
	switch ex.Name {
	case "MoPub":
		return "/imp"
	case "AppNexus":
		return "/ab"
	case "Turn":
		return "/r/beacon"
	case "DoubleClick":
		return "/pagead/adview"
	case "OpenX":
		return "/w/1.0/rc"
	case "Rubicon":
		return "/beacon/t"
	case "PulsePoint":
		return "/bid/notify"
	case "MediaMath":
		return "/notify/js"
	case "myThings":
		return "/ads/admainrtb.aspx"
	default:
		if ex.PathHint != "" {
			return ex.PathHint
		}
		return "/notify"
	}
}

// FindByName returns the registry descriptor with the given name.
func (r *Registry) FindByName(name string) (Exchange, bool) {
	for _, ex := range r.exchanges {
		if ex.Name == name {
			return ex, true
		}
	}
	return Exchange{}, false
}
