// Package cookiesync detects cookie-synchronization events and web beacons
// in a stream of HTTP requests. The paper counts "# of total web beacons
// detected for the user" and "# of cookie syncs detected of the user up to
// now" among its user features (Table 4), because sync activity is how
// SSPs and DSPs join their user identifiers and is correlated with
// re-targeting (and thus with higher charge prices).
//
// Detection follows the standard measurement-literature heuristics
// (Acar et al. [1], Bashir et al. [4]):
//
//   - cookie sync: a request to an ad-ecosystem domain whose URL carries a
//     partner-bound user identifier in a known sync parameter
//     (user_id/uid/google_gid/partner_uid/…) or whose path matches a known
//     sync endpoint (/getuid, /pixel, /usersync, /cksync, /rum, /match);
//   - web beacon: a request for a tiny tracking object (1×1 pixel paths,
//     /beacon, /collect, …) on a third-party domain.
//
// Inspect scans each URL once, on the nurl package's allocation-free
// span scanner (nurl.SplitURL plus a nurl.Query the Detector keeps):
// host, path and query are matched as substrings of the input. URLs
// the scanner does not take — escaped hosts, relative references, more
// than 48 query parameters — fall back to a net/url implementation
// with identical results, which FuzzInspect holds the scanner to.
package cookiesync

import (
	"net/url"
	"strings"

	"yourandvalue/internal/nurl"
)

// Kind labels a detection.
type Kind int

// Detection kinds.
const (
	None Kind = iota
	CookieSync
	WebBeacon
)

// String returns the detection label.
func (k Kind) String() string {
	switch k {
	case CookieSync:
		return "cookie-sync"
	case WebBeacon:
		return "web-beacon"
	default:
		return "none"
	}
}

// Event is one positive detection.
type Event struct {
	Kind    Kind
	Host    string
	Param   string // sync parameter that matched, if any
	UserID  string // identifier value observed, if any
	Partner string // partner domain in redirect-style syncs, if present
}

// syncParams are URL query keys that carry user identifiers in
// cross-domain sync calls, drawn from the RTB macro lists of the major
// exchanges ([25, 35, 56, 63, 69]).
var syncParams = []string{
	"user_id", "uid", "buyer_uid", "google_gid", "partner_uid", "puid",
	"external_uid", "userid", "visitor_id", "dsp_id", "exchange_uid",
	"google_push", "ssp_uid",
}

// syncPaths are endpoint path fragments dedicated to ID syncing.
var syncPaths = []string{
	"/getuid", "/usersync", "/cksync", "/pixel/sync", "/match", "/setuid",
	"/sync?", "/sync/", "/ids/sync",
}

// beaconPaths are endpoint path fragments serving tracking pixels.
var beaconPaths = []string{
	"/beacon", "/collect", "/1x1", "/pixel.gif", "/px.gif", "/b.gif",
	"/imp.gif", "/t.gif", "/utm.gif",
}

// partnerParams name the redirect partner in chained syncs.
var partnerParams = []string{"redir", "redirect", "r", "next", "3pck", "partner"}

// Detector inspects requests and accumulates per-user counters. The zero
// value is not usable; call NewDetector.
type Detector struct {
	// adHost reports whether a host belongs to the ad ecosystem; only
	// requests to such hosts count as syncs (first parties set their own
	// cookies legitimately).
	adHost func(host string) bool

	syncs   int
	beacons int
	// idOwners maps an observed identifier value to the set of distinct
	// ad hosts that have seen it; an ID seen on ≥2 hosts is a completed
	// sync pair, the strongest signal in the literature.
	idOwners map[string]map[string]struct{}
	pairs    int

	q nurl.Query // query spans of the URL being inspected
}

// NewDetector builds a Detector. adHost may be nil, in which case every
// host is eligible (useful in unit tests).
func NewDetector(adHost func(host string) bool) *Detector {
	if adHost == nil {
		adHost = func(string) bool { return true }
	}
	return &Detector{adHost: adHost, idOwners: make(map[string]map[string]struct{})}
}

// Inspect examines one request URL and returns a detection (Kind None if
// the request is not a sync or beacon). Counters update on detection.
// The event's strings may alias rawURL.
func (d *Detector) Inspect(rawURL string) Event {
	host, path, query, ok := nurl.SplitURL(rawURL)
	if !ok {
		return d.inspectReference(rawURL)
	}
	host = strings.ToLower(host)
	if !d.adHost(host) {
		return Event{}
	}
	if !d.q.Scan(query) {
		return d.inspectReference(rawURL)
	}

	// Sync parameter carrying an ID?
	for _, p := range syncParams {
		if v := d.q.Get(p); len(v) >= 8 {
			ev := Event{Kind: CookieSync, Host: host, Param: p, UserID: v}
			for _, pp := range partnerParams {
				if pv := d.q.Get(pp); pv != "" {
					if pu, err := url.Parse(pv); err == nil && pu.Host != "" {
						ev.Partner = strings.ToLower(pu.Hostname())
					}
					break
				}
			}
			d.recordSync(host, v)
			return ev
		}
	}
	// Dedicated sync endpoint? The reference matches each fragment
	// against path + "?" + query; a fragment's '?' may straddle that
	// boundary, which only exists when the query is non-empty.
	lowPath, lowQuery := strings.ToLower(nurl.UnescapePath(path)), strings.ToLower(query)
	for _, sp := range syncPaths {
		if strings.Contains(lowPath, sp) || query != "" && (strings.Contains(lowQuery, sp) || straddles(lowPath, lowQuery, sp)) {
			d.syncs++
			return Event{Kind: CookieSync, Host: host}
		}
	}
	// Tracking pixel?
	for _, bp := range beaconPaths {
		if strings.Contains(lowPath, bp) {
			d.beacons++
			return Event{Kind: WebBeacon, Host: host}
		}
	}
	return Event{}
}

// straddles reports whether sp occurs in lowPath+"?"+lowQuery with one
// of its '?' bytes on the joining '?'.
func straddles(lowPath, lowQuery, sp string) bool {
	for i := 0; i < len(sp); i++ {
		if sp[i] == '?' && strings.HasSuffix(lowPath, sp[:i]) && strings.HasPrefix(lowQuery, sp[i+1:]) {
			return true
		}
	}
	return false
}

// inspectReference is Inspect over net/url: it parses the URL and its
// query into fresh strings. Inspect falls back to it for URLs the span
// scanner does not take, and FuzzInspect checks Inspect against it.
func (d *Detector) inspectReference(rawURL string) Event {
	u, err := url.Parse(rawURL)
	if err != nil || u.Host == "" {
		return Event{}
	}
	host := strings.ToLower(u.Hostname())
	if !d.adHost(host) {
		return Event{}
	}
	lowPath := strings.ToLower(u.Path)
	q := u.Query()

	// Sync parameter carrying an ID?
	for _, p := range syncParams {
		if v := q.Get(p); v != "" && len(v) >= 8 {
			ev := Event{Kind: CookieSync, Host: host, Param: p, UserID: v}
			for _, pp := range partnerParams {
				if pv := q.Get(pp); pv != "" {
					if pu, err := url.Parse(pv); err == nil && pu.Host != "" {
						ev.Partner = strings.ToLower(pu.Hostname())
					}
					break
				}
			}
			d.recordSync(host, v)
			return ev
		}
	}
	// Dedicated sync endpoint?
	pathAndQuery := lowPath
	if u.RawQuery != "" {
		pathAndQuery += "?" + strings.ToLower(u.RawQuery)
	}
	for _, sp := range syncPaths {
		if strings.Contains(pathAndQuery, sp) {
			d.syncs++
			return Event{Kind: CookieSync, Host: host}
		}
	}
	// Tracking pixel?
	for _, bp := range beaconPaths {
		if strings.Contains(lowPath, bp) {
			d.beacons++
			return Event{Kind: WebBeacon, Host: host}
		}
	}
	return Event{}
}

func (d *Detector) recordSync(host, id string) {
	d.syncs++
	owners, ok := d.idOwners[id]
	if !ok {
		owners = make(map[string]struct{})
		d.idOwners[id] = owners
	}
	before := len(owners)
	owners[host] = struct{}{}
	if before == 1 && len(owners) == 2 {
		d.pairs++ // first confirmation that two hosts share this ID
	} else if before >= 2 && len(owners) > before {
		d.pairs++
	}
}

// Syncs returns the number of cookie-sync requests observed.
func (d *Detector) Syncs() int { return d.syncs }

// Beacons returns the number of web beacons observed.
func (d *Detector) Beacons() int { return d.beacons }

// ConfirmedPairs returns the number of (id, host) joins beyond the first
// host per ID — i.e. completed sync relationships.
func (d *Detector) ConfirmedPairs() int { return d.pairs }

// DistinctIDs returns how many distinct user identifiers have been seen in
// sync parameters.
func (d *Detector) DistinctIDs() int { return len(d.idOwners) }
