package weblog

import (
	"time"

	"yourandvalue/internal/detect"
	"yourandvalue/internal/geoip"
	"yourandvalue/internal/rtb"
	"yourandvalue/internal/useragent"
)

// Request is one HTTP request record as the paper's proxy logged it:
// timestamp, user, URL, UA, client address, and transfer accounting.
// The generator also interns bounded-vocabulary strings (hosts, shared
// web user agents) into the trace's detect.SymbolTable and records the
// symbols alongside the string views, so detection engines can key
// their caches by dense id. Per-user-unique strings — the in-app UA
// and the client address — deliberately stay uninterned (symbol None):
// interning them would grow the stream-wide table linearly with users
// and break GenerateStream's bounded-memory contract, and consumers
// fall back to evictable string-keyed caches for them. Hand-built
// requests may leave every symbol zero.
type Request struct {
	Time       time.Time
	UserID     int
	URL        string
	Host       string
	UserAgent  string
	ClientIP   string
	Bytes      int64
	DurationMS float64

	// Interned views (detect.None when the record was not interned).
	HostSym  detect.Sym
	AgentSym detect.Sym
	AddrSym  detect.Sym
}

// Detect returns the request in the detection engine's record form.
func (r Request) Detect() detect.Record {
	return detect.Record{
		Time:      r.Time,
		UserID:    r.UserID,
		URL:       r.URL,
		Host:      r.Host,
		UserAgent: r.UserAgent,
		ClientIP:  r.ClientIP,
		HostSym:   r.HostSym,
		AgentSym:  r.AgentSym,
		AddrSym:   r.AddrSym,
	}
}

// UserShard returns the shard in [0, n) that owns userID. Every
// consumer that partitions requests by user — the analyzer's fold and
// the stream aggregator — routes with it, so all of a user's requests
// meet one shard; negative IDs (hand-built traces) map into range too.
func UserShard(userID, n int) int {
	s := userID % n
	if s < 0 {
		s += n
	}
	return s
}

// User is one member of the synthetic population with the latent traits
// that shape their traffic and their value to advertisers.
type User struct {
	ID     int
	City   geoip.City
	OS     useragent.OS
	Device useragent.DeviceType
	IP     string
	// ValueMultiplier is the heavy-tailed per-user worth advertisers
	// perceive; whales (paper §6.2's ~2% of users) carry large values.
	ValueMultiplier float64
	// SessionsPerDay is the user's mean browsing-session rate.
	SessionsPerDay float64
	// AppAffinity is the probability a session happens in an app rather
	// than the mobile browser.
	AppAffinity float64
	// SyncID is the user identifier ad domains exchange in cookie syncs.
	SyncID string
	// Bot marks automated traffic (bot-noise scenarios): heavy session
	// rates, near-zero app usage, and a discounted advertiser value.
	Bot bool
}

// ImpressionTruth retains the generator-side ground truth for one RTB
// impression: what the auction actually charged and under which context.
// The analyzer never sees this; evaluation harnesses score against it.
// The ad entities and publisher are interned like Request's strings.
type ImpressionTruth struct {
	UserID    int
	Month     int // 1..12 within the trace year
	Ctx       rtb.Context
	ADX       string
	DSP       string
	ChargeCPM float64
	Encrypted bool
	NURL      string

	// Interned views (detect.None when the record was not interned).
	ADXSym       detect.Sym
	DSPSym       detect.Sym
	PublisherSym detect.Sym
}

// Trace is a fully materialized synthetic weblog. Symbols is the
// interned-string table behind the records' dense ids.
type Trace struct {
	Users       []User
	Requests    []Request // time-ordered
	Impressions []ImpressionTruth
	Catalog     *Catalog
	Symbols     *detect.SymbolTable
	Year        int
}

// RTBCount returns the number of RTB impressions in the trace (the
// paper's Table 3 "Impressions" row for D).
func (t *Trace) RTBCount() int { return len(t.Impressions) }
