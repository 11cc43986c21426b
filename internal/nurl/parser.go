package nurl

import (
	"strconv"
	"strings"
)

// maxQueryParams bounds the span scratch of a Query. Real notification
// URLs carry ~10 parameters; anything beyond the bound reports !ok, and
// callers fall back to a net/url implementation.
const maxQueryParams = 48

// kvSpan is one successfully scanned query parameter: key and value as
// substrings of the input URL (no copies), with flags recording whether
// either side still carries percent/plus escapes.
type kvSpan struct {
	key, val       string
	keyEsc, valEsc bool
}

// Query is a reusable allocation-free scanner over a raw URL query:
// Scan splits it into key/value spans of the input string and Get looks
// values up with the url.Values.Get contract. Together with SplitURL it
// is the one URL scan both the notification Parser and cookie-sync
// detection run. A Query is not safe for concurrent use.
type Query struct {
	n   int // spans of arr in use for the current query
	arr [maxQueryParams]kvSpan
}

// Parser is a reusable allocation-free notification-URL scanner over a
// Registry. Unlike Registry.Parse — which builds a scratch parser per
// call — a persistent Parser keeps its span buffer across calls, so the
// warm path performs zero heap allocations. A Parser is not safe for
// concurrent use; give each goroutine its own.
type Parser struct {
	reg *Registry
	q   Query
}

// NewParser returns a parser over the registry's macro descriptors.
func NewParser(r *Registry) *Parser { return &Parser{reg: r} }

// Parse attempts to interpret rawURL as a price notification, with the
// same detection semantics as Registry.Parse. ok is false when the URL
// matches no registered macro or carries no usable charge price.
//
// The returned Notification's string fields (DSP, Token, ImpID, ...)
// may alias rawURL's backing array — that is what makes the warm path
// allocation-free. Callers that retain notifications long after the
// URL (e.g. unbounded event histories) should strings.Clone the fields
// they keep.
func (p *Parser) Parse(rawURL string) (Notification, bool) {
	host, path, query, ok := SplitURL(rawURL)
	if !ok {
		return Notification{}, false
	}
	host = strings.ToLower(host) // no copy when already lowercase
	scanned, scanOK := false, false
	for _, ex := range p.reg.exchanges {
		if !hostMatches(host, ex.HostSuffix) {
			continue
		}
		if ex.PathHint != "" && !pathContains(path, ex.PathHint) {
			continue
		}
		if !scanned {
			scanned, scanOK = true, p.q.Scan(query)
		}
		if !scanOK {
			// Pathological parameter count: defer wholesale to the
			// reference implementation.
			return p.reg.ParseReference(rawURL)
		}
		n, ok := p.extract(ex, host)
		if ok {
			return n, true
		}
	}
	return Notification{}, false
}

// Scan splits the raw query into valid key/value spans, applying the
// same per-pair rules as net/url.ParseQuery: empty segments, segments
// containing ';', and segments with invalid percent escapes are
// dropped. It reports false when the segment count exceeds the span
// buffer; the spans are then unusable.
func (q *Query) Scan(query string) bool {
	q.n = 0
	for query != "" {
		var seg string
		if i := strings.IndexByte(query, '&'); i >= 0 {
			seg, query = query[:i], query[i+1:]
		} else {
			seg, query = query, ""
		}
		if seg == "" || strings.IndexByte(seg, ';') >= 0 {
			continue
		}
		key, val := seg, ""
		if i := strings.IndexByte(seg, '='); i >= 0 {
			key, val = seg[:i], seg[i+1:]
		}
		if !validEscapes(key) || !validEscapes(val) {
			continue
		}
		if q.n == maxQueryParams {
			return false
		}
		q.arr[q.n] = kvSpan{
			key: key, val: val,
			keyEsc: hasEsc(key), valEsc: hasEsc(val),
		}
		q.n++
	}
	return true
}

// Get returns the first value for the (unescaped) parameter name, ""
// when absent — the url.Values.Get contract over the scanned spans. The
// result aliases the scanned query unless the value carries escapes.
func (q *Query) Get(name string) string {
	for i := 0; i < q.n; i++ {
		sp := &q.arr[i]
		if sp.keyEsc {
			if !escPlainEq(sp.key, name) {
				continue
			}
		} else if sp.key != name {
			continue
		}
		if !sp.valEsc {
			return sp.val
		}
		return unescape(sp.val)
	}
	return ""
}

// distinct counts distinct parameter keys — len(url.Values) over the
// scanned spans.
func (q *Query) distinct() int {
	n := 0
	for i := 0; i < q.n; i++ {
		dup := false
		for j := 0; j < i && !dup; j++ {
			dup = keyEq(q.arr[i], q.arr[j])
		}
		if !dup {
			n++
		}
	}
	return n
}

// extract mirrors parseWith over the scanned spans.
func (p *Parser) extract(ex Exchange, host string) (Notification, bool) {
	raw := p.q.Get(ex.PriceParam)
	if raw == "" {
		return Notification{}, false
	}
	n := Notification{
		ADX:      ex.Name,
		Host:     host,
		Currency: "USD",
		Params:   p.q.distinct(),
	}
	if cur := p.q.Get("currency"); cur != "" {
		n.Currency = strings.ToUpper(cur)
	}
	kind, cpm, ok := classifyPrice(raw)
	if !ok {
		return Notification{}, false
	}
	n.Kind = kind
	if kind == Cleartext {
		n.PriceCPM = cpm
	} else {
		n.Token = raw
	}
	if ex.DSPParam != "" {
		n.DSP = p.q.Get(ex.DSPParam)
	}
	if n.DSP == "" {
		if ex.ADXParam != "" {
			n.DSP = registrableName(host)
		}
	}
	if ex.ADXParam != "" {
		if v := p.q.Get(ex.ADXParam); v != "" {
			if canonical, ok := adxAliases[strings.ToLower(v)]; ok {
				n.ADX = canonical
			}
		}
	}
	if ex.WidthParam != "" {
		n.Width, _ = strconv.Atoi(p.q.Get(ex.WidthParam))
	}
	if ex.HeightParam != "" {
		n.Height, _ = strconv.Atoi(p.q.Get(ex.HeightParam))
	}
	if ex.SizeParam != "" && n.Width == 0 {
		n.Width, n.Height = parseSize(p.q.Get(ex.SizeParam))
	}
	if ex.ImpParam != "" {
		n.ImpID = p.q.Get(ex.ImpParam)
	}
	if ex.AuctionParam != "" {
		n.AuctionID = p.q.Get(ex.AuctionParam)
	}
	if ex.CampaignParam != "" {
		n.Campaign = p.q.Get(ex.CampaignParam)
	}
	if ex.PublisherParam != "" {
		n.Publisher = p.q.Get(ex.PublisherParam)
	} else if v := p.q.Get("ad_domain"); v != "" {
		n.Publisher = v
	}
	return n, true
}

// SplitURL decomposes an absolute (or scheme-relative) URL into host,
// raw path and raw query without allocating. ok is true exactly when
// net/url.Parse accepts the URL and its host is non-empty and free of
// percent escapes: control characters, malformed schemes, invalid
// userinfo, invalid path or fragment escapes, non-numeric ports,
// forbidden host bytes, escaped hosts and empty hosts all report !ok.
// host is then the URL's Hostname() (userinfo, port and IPv6 brackets
// stripped, case kept); path and query are still escaped.
func SplitURL(raw string) (host, path, query string, ok bool) {
	// The fragment hides everything after it; net/url only checks its
	// escapes.
	if i := strings.IndexByte(raw, '#'); i >= 0 {
		if !validEscapes(raw[i+1:]) {
			return "", "", "", false
		}
		raw = raw[:i]
	}
	for i := 0; i < len(raw); i++ {
		if raw[i] < 0x20 || raw[i] == 0x7f {
			return "", "", "", false
		}
	}
	var rest string
	if strings.HasPrefix(raw, "//") {
		rest = raw[2:]
	} else {
		i := strings.Index(raw, "://")
		if i <= 0 || !validScheme(raw[:i]) {
			return "", "", "", false
		}
		rest = raw[i+3:]
	}
	end := len(rest)
	for i := 0; i < len(rest); i++ {
		if rest[i] == '/' || rest[i] == '?' {
			end = i
			break
		}
	}
	auth := rest[:end]
	rest = rest[end:]
	if i := strings.LastIndexByte(auth, '@'); i >= 0 {
		if !validUserinfo(auth[:i]) {
			return "", "", "", false
		}
		auth = auth[i+1:]
	}
	if strings.HasPrefix(auth, "[") {
		i := strings.IndexByte(auth, ']')
		if i < 0 || !validOptionalPort(auth[i+1:]) {
			return "", "", "", false
		}
		auth = auth[1:i]
	} else if i := strings.LastIndexByte(auth, ':'); i >= 0 {
		// net/url splits the port at the last colon and requires digits.
		if !validOptionalPort(auth[i:]) {
			return "", "", "", false
		}
		auth = auth[:i]
	}
	if auth == "" || !validHostname(auth) {
		return "", "", "", false
	}
	path = rest
	if i := strings.IndexByte(rest, '?'); i >= 0 {
		path, query = rest[:i], rest[i+1:]
	}
	if !validEscapes(path) {
		return "", "", "", false
	}
	return auth, path, query, true
}

// UnescapePath decodes the percent escapes of a path SplitURL returned,
// as net/url does for URL.Path ('+' stays literal). It allocates only
// when the path carries escapes.
func UnescapePath(path string) string {
	if !hasPct(path) {
		return path
	}
	var b strings.Builder
	b.Grow(len(path))
	for i := 0; i < len(path); i++ {
		if path[i] == '%' {
			b.WriteByte(unhex(path[i+1])<<4 | unhex(path[i+2]))
			i += 2
			continue
		}
		b.WriteByte(path[i])
	}
	return b.String()
}

// pathContains reports whether the (case-folded, percent-decoded) path
// contains the hint. Decoding only happens when escapes are present,
// which no generated notification path has.
func pathContains(path, hint string) bool {
	return strings.Contains(strings.ToLower(UnescapePath(path)), hint)
}

// validOptionalPort reports whether s is "" or ":" followed by digits,
// the net/url port contract.
func validOptionalPort(s string) bool {
	if s == "" {
		return true
	}
	if s[0] != ':' {
		return false
	}
	for i := 1; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

func validScheme(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z':
		case '0' <= c && c <= '9' || c == '+' || c == '-' || c == '.':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validHostname reports whether net/url accepts every byte of the
// (bracket- and port-free) host, with '%' rejected too: escaped hosts
// are not supported.
func validHostname(h string) bool {
	for i := 0; i < len(h); i++ {
		switch h[i] {
		case ' ', '%', '\\', '^', '`', '{', '|', '}', '/', '?', '#', '@':
			return false
		}
	}
	return true
}

// validUserinfo mirrors net/url's userinfo check: RFC 3986 userinfo
// bytes only, with well-formed percent escapes.
func validUserinfo(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9':
		case strings.IndexByte("-._:~!$&'()*+,;=%@", c) >= 0:
		default:
			return false
		}
	}
	return validEscapes(s)
}

// validEscapes reports whether every '%' in s introduces a two-digit
// hex escape (the pair is otherwise dropped, like net/url does).
func validEscapes(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '%' {
			continue
		}
		if i+2 >= len(s) || !isHexDigit(s[i+1]) || !isHexDigit(s[i+2]) {
			return false
		}
		i += 2
	}
	return true
}

func isHexDigit(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func unhex(c byte) byte {
	switch {
	case '0' <= c && c <= '9':
		return c - '0'
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10
	default:
		return c - 'A' + 10
	}
}

func hasEsc(s string) bool {
	return strings.IndexByte(s, '%') >= 0 || strings.IndexByte(s, '+') >= 0
}

func hasPct(s string) bool { return strings.IndexByte(s, '%') >= 0 }

// unescape decodes a query component with pre-validated escapes
// ('+' becomes space). It allocates; callers hit it only for escaped
// values they actually extract.
func unescape(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '%':
			b.WriteByte(unhex(s[i+1])<<4 | unhex(s[i+2]))
			i += 2
		case '+':
			b.WriteByte(' ')
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// escPlainEq reports whether the escaped query key a decodes to the
// literal (escape-free) string b, without allocating.
func escPlainEq(a, b string) bool {
	j := 0
	for i := 0; i < len(a); i++ {
		var c byte
		switch a[i] {
		case '%':
			c = unhex(a[i+1])<<4 | unhex(a[i+2])
			i += 2
		case '+':
			c = ' '
		default:
			c = a[i]
		}
		if j >= len(b) || b[j] != c {
			return false
		}
		j++
	}
	return j == len(b)
}

// keyEq reports whether two scanned spans decode to the same key.
func keyEq(a, b kvSpan) bool {
	switch {
	case !a.keyEsc && !b.keyEsc:
		return a.key == b.key
	case a.keyEsc && !b.keyEsc:
		return escPlainEq(a.key, b.key)
	case !a.keyEsc && b.keyEsc:
		return escPlainEq(b.key, a.key)
	default:
		return unescape(a.key) == unescape(b.key)
	}
}
