package detect

import (
	"time"

	"yourandvalue/internal/geoip"
	"yourandvalue/internal/iab"
	"yourandvalue/internal/nurl"
	"yourandvalue/internal/trafficclass"
	"yourandvalue/internal/useragent"
)

// Record is one weblog request in the engine's input form: the string
// views plus the optional interned symbols a weblog producer assigned.
// Symbols are an acceleration, not a requirement — a record with None
// symbols takes the string-keyed cache path and yields identical
// results. All records fed to one engine must come from one symbol
// namespace (one SymbolTable).
type Record struct {
	Time      time.Time
	UserID    int
	URL       string
	Host      string
	UserAgent string
	ClientIP  string

	HostSym  Sym
	AgentSym Sym
	AddrSym  Sym
}

// Impression is one detected RTB price notification enriched with the
// auction's context as reconstructed from the trace — the unit every
// downstream consumer (analysis folds, cost estimation, encoding)
// works on.
type Impression struct {
	Time         time.Time
	Month        int // 1..12
	UserID       int
	Notification nurl.Notification
	City         geoip.City
	Device       useragent.Device
	Publisher    string // attributed from the user's preceding page view
	Category     iab.Category
}

// Encrypted reports whether the price arrived encrypted.
func (i Impression) Encrypted() bool { return i.Notification.Kind == nurl.Encrypted }

// Emission is what one engine step reports about a request: its traffic
// class and geolocation always; the page-view category when the request
// was a first-party view (Class == Rest); and the full impression when
// a price notification was detected.
type Emission struct {
	Class trafficclass.Class
	City  geoip.City
	// PageView is true for first-party views; the engine has recorded
	// the host for publisher attribution and Category carries the
	// page's IAB category.
	PageView bool
	Category iab.Category
	// Detected is true when the request was a price notification;
	// Impression is then fully populated.
	Detected   bool
	Impression Impression
}

// Config assembles an Engine's substrates; nil fields take the package
// defaults, matching the historical analyzer wiring.
type Config struct {
	Registry   *nurl.Registry
	Classifier *trafficclass.Classifier
	GeoDB      *geoip.DB
	Directory  *iab.Directory
}

// hostEntry caches what the engine learns about one host: its traffic
// class and (for attributed publishers) its IAB category.
type hostEntry struct {
	class   trafficclass.Class
	cat     iab.Category
	classOK bool
	catOK   bool
}

// page is the publisher-attribution state per user: the host of the
// user's most recent first-party page view.
type page struct {
	host string
	sym  Sym
}

// userState is everything the engine remembers about one user: the
// attribution page plus the address/agent cache keys the user warmed,
// so a switch of address or agent evicts the displaced entry. Two slots
// cover a user's agents (mobile-web and in-app UA); eviction is
// best-effort — a shared entry another user still needs is simply
// recomputed on its next use.
type userState struct {
	page      page
	addrSym   Sym
	addrKey   string
	agentSyms [2]Sym
	agentKeys [2]string
}

// Engine performs the full single-pass detection step — classify →
// nURL-parse → publisher-attribution — over a request stream, caching
// every sub-lookup (traffic class, IAB category, reverse geocoding,
// user-agent fingerprint) by interned symbol so the warm path performs
// zero heap allocations. An Engine carries per-user attribution state
// and per-stream caches: use one engine per stream (or per shard of a
// partitioned stream), and do not share one across goroutines.
//
// Hosts have a bounded vocabulary and live in dense symbol-indexed
// slices; addresses and agents scale with the population, so their
// caches are maps from which a user's displaced address or agent is
// evicted when the user switches, holding at most one address and two
// agents per user.
type Engine struct {
	registry   *nurl.Registry
	classifier *trafficclass.Classifier
	geo        *geoip.DB
	dir        *iab.Directory
	parser     *nurl.Parser

	hostsBySym  []hostEntry
	hostsByName map[string]*hostEntry

	agentsBySym map[Sym]useragent.Device
	agentsByUA  map[string]useragent.Device
	addrsBySym  map[Sym]geoip.City
	addrsByIP   map[string]geoip.City

	users map[int]*userState
}

// NewEngine builds an engine over the given substrates.
func NewEngine(cfg Config) *Engine {
	if cfg.Registry == nil {
		cfg.Registry = nurl.Default()
	}
	if cfg.Classifier == nil {
		cfg.Classifier = trafficclass.DefaultClassifier()
	}
	if cfg.GeoDB == nil {
		cfg.GeoDB = geoip.Default()
	}
	if cfg.Directory == nil {
		cfg.Directory = iab.NewDirectory(nil)
	}
	return &Engine{
		registry:    cfg.Registry,
		classifier:  cfg.Classifier,
		geo:         cfg.GeoDB,
		dir:         cfg.Directory,
		parser:      nurl.NewParser(cfg.Registry),
		hostsByName: make(map[string]*hostEntry),
		agentsBySym: make(map[Sym]useragent.Device),
		agentsByUA:  make(map[string]useragent.Device),
		addrsBySym:  make(map[Sym]geoip.City),
		addrsByIP:   make(map[string]geoip.City),
		users:       make(map[int]*userState),
	}
}

// user returns (creating on first sight) the per-user state.
func (e *Engine) user(id int) *userState {
	us := e.users[id]
	if us == nil {
		us = &userState{}
		e.users[id] = us
	}
	return us
}

// host returns the cache entry for a host, keyed by symbol when the
// record carries one and by string otherwise.
func (e *Engine) host(name string, sym Sym) *hostEntry {
	if sym > 0 {
		if int(sym) >= len(e.hostsBySym) {
			e.hostsBySym = append(e.hostsBySym, make([]hostEntry, int(sym)+1-len(e.hostsBySym))...)
		}
		return &e.hostsBySym[sym]
	}
	ent := e.hostsByName[name]
	if ent == nil {
		ent = &hostEntry{}
		e.hostsByName[name] = ent
	}
	return ent
}

// Class returns the (cached) traffic class of a host — the classifier
// sub-step exposed for callers that inspect hosts outside the stream,
// e.g. cookie-sync detection.
func (e *Engine) Class(host string) trafficclass.Class {
	ent := e.host(host, None)
	if !ent.classOK {
		ent.class, ent.classOK = e.classifier.Classify(host), true
	}
	return ent.class
}

// city returns the (cached) reverse-geocoded city of a client address,
// recording the cache key on the user. A user switching addresses
// evicts the displaced entry immediately, so tracking one key per user
// never leaks the earlier ones.
func (e *Engine) city(ip string, sym Sym, us *userState) geoip.City {
	if sym > 0 {
		if us.addrSym != sym {
			if us.addrSym != None {
				delete(e.addrsBySym, us.addrSym)
			}
			us.addrSym = sym
		}
		if c, ok := e.addrsBySym[sym]; ok {
			return c
		}
		c := e.geo.LookupString(ip)
		e.addrsBySym[sym] = c
		return c
	}
	if us.addrKey != ip {
		if us.addrKey != "" {
			delete(e.addrsByIP, us.addrKey)
		}
		us.addrKey = ip
	}
	if c, ok := e.addrsByIP[ip]; ok {
		return c
	}
	c := e.geo.LookupString(ip)
	e.addrsByIP[ip] = c
	return c
}

// device returns the (cached) parsed user-agent fingerprint. Two
// tracked slots cover a user's normal agents (mobile-web plus in-app);
// a third distinct agent displaces a slot and evicts the displaced
// cache entry immediately, so nothing a user warmed can outlive its
// tracking.
func (e *Engine) device(ua string, sym Sym, us *userState) useragent.Device {
	if sym > 0 {
		if us.agentSyms[0] != sym && us.agentSyms[1] != sym {
			switch {
			case us.agentSyms[0] == None:
				us.agentSyms[0] = sym
			case us.agentSyms[1] == None:
				us.agentSyms[1] = sym
			default:
				delete(e.agentsBySym, us.agentSyms[1])
				us.agentSyms[1] = sym
			}
		}
		if d, ok := e.agentsBySym[sym]; ok {
			return d
		}
		d := useragent.Parse(ua)
		e.agentsBySym[sym] = d
		return d
	}
	if us.agentKeys[0] != ua && us.agentKeys[1] != ua {
		switch {
		case us.agentKeys[0] == "":
			us.agentKeys[0] = ua
		case us.agentKeys[1] == "":
			us.agentKeys[1] = ua
		default:
			delete(e.agentsByUA, us.agentKeys[1])
			us.agentKeys[1] = ua
		}
	}
	if d, ok := e.agentsByUA[ua]; ok {
		return d
	}
	d := useragent.Parse(ua)
	e.agentsByUA[ua] = d
	return d
}

// category returns the (cached) IAB category of a publisher.
func (e *Engine) category(pub string, sym Sym) iab.Category {
	ent := e.host(pub, sym)
	if !ent.catOK {
		ent.cat, ent.catOK = e.dir.Lookup(pub), true
	}
	return ent.cat
}

// Step runs the full detection pass over one request: classify the
// host, update publisher attribution on first-party views, and on
// advertising traffic parse the URL for a price notification,
// reconstructing the impression's geo, device, publisher and category
// context. The warm path allocates nothing.
func (e *Engine) Step(rec Record) Emission {
	us := e.user(rec.UserID)
	hostEnt := e.host(rec.Host, rec.HostSym)
	if !hostEnt.classOK {
		hostEnt.class, hostEnt.classOK = e.classifier.Classify(rec.Host), true
	}
	em := Emission{Class: hostEnt.class, City: e.city(rec.ClientIP, rec.AddrSym, us)}

	switch em.Class {
	case trafficclass.Rest:
		// First-party page view: remember it for publisher attribution
		// and report the category for interest profiling.
		if !hostEnt.catOK {
			hostEnt.cat, hostEnt.catOK = e.dir.Lookup(rec.Host), true
		}
		us.page = page{host: rec.Host, sym: rec.HostSym}
		em.PageView = true
		em.Category = hostEnt.cat
	case trafficclass.Advertising:
		n, ok := e.parser.Parse(rec.URL)
		if !ok {
			return em
		}
		pub := us.page
		if pub.host == "" {
			pub = page{host: n.Publisher}
		}
		em.Detected = true
		em.Impression = Impression{
			Time:         rec.Time,
			Month:        int(rec.Time.Month()),
			UserID:       rec.UserID,
			Notification: n,
			City:         em.City,
			Device:       e.device(rec.UserAgent, rec.AgentSym, us),
			Publisher:    pub.host,
			Category:     e.category(pub.host, pub.sym),
		}
	}
	return em
}
