// Package analyzer implements the Weblog Ads Analyzer of paper §4.1: it
// consumes a raw HTTP trace and (i) classifies traffic with a blacklist,
// (ii) detects RTB price notifications by macro matching, (iii) extracts
// charge prices and auction metadata, (iv) reverse-geocodes users,
// (v) separates app from browser traffic via the user agent, (vi)
// identifies cooperating ADX-DSP pairs, and (vii) builds per-user interest
// profiles from browsing history.
//
// The detection substeps (i)-(v) live in the shared internal/detect
// engine — the same code path the online stream shards and the PME's
// estimation surfaces run — and the analyzer is a fold over the
// engine's emissions into the paper's batch summaries, sharded by user.
//
// The analyzer sees only what a proxy would: requests. It never touches
// the generator's ground truth, which is what makes the downstream
// accuracy evaluation meaningful.
package analyzer

import (
	"maps"
	"sync"

	"yourandvalue/internal/cookiesync"
	"yourandvalue/internal/detect"
	"yourandvalue/internal/geoip"
	"yourandvalue/internal/iab"
	"yourandvalue/internal/nurl"
	"yourandvalue/internal/trafficclass"
	"yourandvalue/internal/weblog"
)

// Impression is one detected RTB price notification enriched with the
// auction's context as reconstructed from the trace. It is the shared
// detection engine's impression record.
type Impression = detect.Impression

// UserSummary aggregates the per-user behavioural features of Table 4.
type UserSummary struct {
	UserID          int
	Requests        int
	Bytes           int64
	TotalDurationMS float64
	Publishers      map[string]int // first-party hosts visited, with counts
	Interests       *iab.Profile
	Syncs           int
	Beacons         int
	Cities          map[geoip.City]int
	Impressions     int
	CleartextSum    float64 // Σ cleartext charge prices (the directly
	// tallyable part of the user's cost)
	CleartextCount int
	EncryptedCount int
}

// AvgBytesPerRequest returns the Table 4 "Avg. number of bytes per req"
// feature.
func (u *UserSummary) AvgBytesPerRequest() float64 {
	if u.Requests == 0 {
		return 0
	}
	return float64(u.Bytes) / float64(u.Requests)
}

// AvgDurationPerRequest returns the Table 4 per-request duration feature.
func (u *UserSummary) AvgDurationPerRequest() float64 {
	if u.Requests == 0 {
		return 0
	}
	return u.TotalDurationMS / float64(u.Requests)
}

// MainCity returns the user's dominant location.
func (u *UserSummary) MainCity() geoip.City {
	best, bestN := geoip.CityUnknown, 0
	for c, n := range u.Cities {
		if n > bestN || (n == bestN && c < best) {
			best, bestN = c, n
		}
	}
	return best
}

// AdvertiserSummary aggregates the Table 4 "Ad" features per ad entity
// (keyed by the winning DSP name).
type AdvertiserSummary struct {
	Name            string
	Impressions     int
	Requests        int
	Bytes           int64
	TotalDurationMS float64
	UserRequests    map[int]int // requests per user for this advertiser
}

// AvgRequestsPerUser returns the Table 4 "Avg. number of reqs per user for
// the advertiser" feature.
func (a *AdvertiserSummary) AvgRequestsPerUser() float64 {
	if len(a.UserRequests) == 0 {
		return 0
	}
	total := 0
	for _, n := range a.UserRequests {
		total += n
	}
	return float64(total) / float64(len(a.UserRequests))
}

// PairKey identifies a cooperating ADX-DSP pair (§4.1 operation iv).
type PairKey struct {
	ADX string
	DSP string
}

// PairStats tracks a pair's notification kinds per month (Figure 2).
type PairStats struct {
	Cleartext [13]int // index 1..12 by month
	Encrypted [13]int
}

// UsesEncryptionBy reports whether the pair has delivered any encrypted
// price up to and including the given month.
func (p *PairStats) UsesEncryptionBy(month int) bool {
	for m := 1; m <= month && m < len(p.Encrypted); m++ {
		if p.Encrypted[m] > 0 {
			return true
		}
	}
	return false
}

// ActiveBy reports whether the pair delivered any price up to the month.
func (p *PairStats) ActiveBy(month int) bool {
	for m := 1; m <= month && m < len(p.Cleartext); m++ {
		if p.Cleartext[m] > 0 || p.Encrypted[m] > 0 {
			return true
		}
	}
	return false
}

// Result is the analyzer's full output.
type Result struct {
	Impressions []Impression
	Users       map[int]*UserSummary
	Advertisers map[string]*AdvertiserSummary
	Pairs       map[PairKey]*PairStats
	ClassCounts map[trafficclass.Class]int
	// Publishers is the set of distinct attributed RTB publishers.
	Publishers map[string]int
}

// Analyzer wires the detection substrates together.
type Analyzer struct {
	Registry   *nurl.Registry
	Classifier *trafficclass.Classifier
	GeoDB      *geoip.DB
	Directory  *iab.Directory
	// Workers is how many user shards Analyze folds in parallel (below
	// 1 means 1). The Result is identical at any count.
	Workers int
}

// New returns a single-worker Analyzer with default substrates and the
// given category directory (pass the trace catalog's directory; nil
// falls back to keyword/hash categorization).
func New(dir *iab.Directory) *Analyzer {
	if dir == nil {
		dir = iab.NewDirectory(nil)
	}
	return &Analyzer{
		Registry:   nurl.Default(),
		Classifier: trafficclass.DefaultClassifier(),
		GeoDB:      geoip.Default(),
		Directory:  dir,
		Workers:    1,
	}
}

// Analyze runs the full pipeline over a time-ordered request stream:
// one shared detect.Engine pass per request, folded into the paper's
// per-user, per-advertiser and per-pair summaries.
//
// The fold is sharded by user (weblog.UserShard) over Workers
// goroutines. Each shard runs its own engine and cookie-sync detectors
// over its users' requests in order; the engine's caches are pure and
// its only cross-request state is per user, so a shard sees exactly
// what one serial pass would. A sequential merge then records the
// detected impressions in global request order, which keeps
// Result.Impressions and every float sum bit-identical at any count.
func (a *Analyzer) Analyze(requests []weblog.Request) *Result {
	shards := make([]*shard, max(1, a.Workers))
	var wg sync.WaitGroup
	for i := range shards {
		shards[i] = a.newShard()
		wg.Add(1)
		go func() {
			defer wg.Done()
			shards[i].fold(requests, i, len(shards))
		}()
	}
	wg.Wait()
	return merge(requests, shards)
}

// shard is the fold state of one user partition.
type shard struct {
	eng       *detect.Engine
	users     map[int]*UserSummary
	detectors map[int]*cookiesync.Detector
	classes   map[trafficclass.Class]int
	hits      []hit // detected impressions, in request order
}

// hit is a detected impression and the index of its request.
type hit struct {
	req int
	imp Impression
}

func (a *Analyzer) newShard() *shard {
	return &shard{
		eng: detect.NewEngine(detect.Config{
			Registry:   a.Registry,
			Classifier: a.Classifier,
			GeoDB:      a.GeoDB,
			Directory:  a.Directory,
		}),
		users:     make(map[int]*UserSummary),
		detectors: make(map[int]*cookiesync.Detector),
		classes:   make(map[trafficclass.Class]int),
	}
}

// fold runs the shard's users' requests (those UserShard routes to id
// of n) through its engine.
func (sh *shard) fold(requests []weblog.Request, id, n int) {
	adHost := func(h string) bool {
		return sh.eng.Class(h) == trafficclass.Advertising
	}
	for i := range requests {
		r := &requests[i]
		if weblog.UserShard(r.UserID, n) != id {
			continue
		}
		u := sh.users[r.UserID]
		if u == nil {
			u = &UserSummary{
				UserID:     r.UserID,
				Publishers: make(map[string]int),
				Interests:  iab.NewProfile(),
				Cities:     make(map[geoip.City]int),
			}
			sh.users[r.UserID] = u
		}
		u.Requests++
		u.Bytes += r.Bytes
		u.TotalDurationMS += r.DurationMS

		em := sh.eng.Step(r.Detect())
		if em.City.Valid() {
			u.Cities[em.City]++
		}
		sh.classes[em.Class]++

		switch em.Class {
		case trafficclass.Rest:
			// First-party page view: the engine recorded it for
			// publisher attribution; feed the interest profile.
			u.Publishers[r.Host]++
			u.Interests.Observe(em.Category, 1)
		case trafficclass.Advertising:
			d := sh.detectors[r.UserID]
			if d == nil {
				d = cookiesync.NewDetector(adHost)
				sh.detectors[r.UserID] = d
			}
			switch d.Inspect(r.URL).Kind {
			case cookiesync.CookieSync:
				u.Syncs++
			case cookiesync.WebBeacon:
				u.Beacons++
			}
			if em.Detected {
				sh.hits = append(sh.hits, hit{req: i, imp: em.Impression})
			}
		}
	}
}

// merge joins the shards' users and class counts by key, then records
// every hit in global request order.
func merge(requests []weblog.Request, shards []*shard) *Result {
	res := &Result{
		Users:       shards[0].users,
		Advertisers: make(map[string]*AdvertiserSummary),
		Pairs:       make(map[PairKey]*PairStats),
		ClassCounts: shards[0].classes,
		Publishers:  make(map[string]int),
	}
	hits := len(shards[0].hits)
	for _, sh := range shards[1:] {
		maps.Copy(res.Users, sh.users)
		for c, n := range sh.classes {
			res.ClassCounts[c] += n
		}
		hits += len(sh.hits)
	}
	if hits > 0 {
		res.Impressions = make([]Impression, 0, hits)
	}
	next := make([]int, len(shards))
	for {
		best := -1
		for s, sh := range shards {
			if next[s] < len(sh.hits) && (best < 0 || sh.hits[next[s]].req < shards[best].hits[next[best]].req) {
				best = s
			}
		}
		if best < 0 {
			return res
		}
		h := &shards[best].hits[next[best]]
		next[best]++
		r := &requests[h.req]
		recordImpression(res, res.Users[r.UserID], r, &h.imp)
	}
}

func recordImpression(res *Result, u *UserSummary, r *weblog.Request, imp *Impression) {
	n := imp.Notification
	res.Impressions = append(res.Impressions, *imp)
	res.Publishers[imp.Publisher]++

	u.Impressions++
	if n.Kind == nurl.Cleartext {
		u.CleartextCount++
		u.CleartextSum += n.PriceCPM
	} else {
		u.EncryptedCount++
	}

	if n.DSP != "" {
		adv := res.Advertisers[n.DSP]
		if adv == nil {
			adv = &AdvertiserSummary{Name: n.DSP, UserRequests: make(map[int]int)}
			res.Advertisers[n.DSP] = adv
		}
		adv.Impressions++
		adv.Requests++
		adv.Bytes += r.Bytes
		adv.TotalDurationMS += r.DurationMS
		adv.UserRequests[r.UserID]++

		pk := PairKey{ADX: n.ADX, DSP: n.DSP}
		ps := res.Pairs[pk]
		if ps == nil {
			ps = &PairStats{}
			res.Pairs[pk] = ps
		}
		if m := imp.Month; m >= 1 && m <= 12 {
			if n.Kind == nurl.Encrypted {
				ps.Encrypted[m]++
			} else {
				ps.Cleartext[m]++
			}
		}
	}
}

// EncryptedPairShare computes Figure 2's y-axis from analyzer output: the
// fraction of pairs active by the given month that have delivered
// encrypted prices by then.
func (r *Result) EncryptedPairShare(month int) float64 {
	active, enc := 0, 0
	for _, ps := range r.Pairs {
		if !ps.ActiveBy(month) {
			continue
		}
		active++
		if ps.UsesEncryptionBy(month) {
			enc++
		}
	}
	if active == 0 {
		return 0
	}
	return float64(enc) / float64(active)
}

// BusiestUser returns the user id with the most RTB impressions (ties
// break toward the smaller id), or -1 on an empty result — the default
// subject the CLI tools follow.
func (r *Result) BusiestUser() int {
	best, bestN := -1, -1
	for id, u := range r.Users {
		if u.Impressions > bestN || (u.Impressions == bestN && id < best) {
			best, bestN = id, u.Impressions
		}
	}
	return best
}

// CleartextPrices returns all cleartext charge prices, optionally filtered
// by a predicate (nil keeps everything).
func (r *Result) CleartextPrices(keep func(Impression) bool) []float64 {
	var out []float64
	for _, imp := range r.Impressions {
		if imp.Notification.Kind != nurl.Cleartext {
			continue
		}
		if keep != nil && !keep(imp) {
			continue
		}
		out = append(out, imp.Notification.PriceCPM)
	}
	return out
}
