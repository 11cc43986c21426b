// Package detect is the shared detection/encoding engine behind every
// consumer of the paper's hot loop: classify a request, parse its price
// notification URL, attribute the publisher, and encode the §5.1 S
// feature vector. The batch analyzer (internal/analyzer) and the PME's
// estimation surfaces (internal/core, /v2/estimate in
// internal/pmeserver) both consume this one engine, so the historical
// copies of the loop cannot drift apart — they are the same code path
// by construction.
//
// The engine works over interned records: a SymbolTable maps the
// high-cardinality strings of a weblog (hosts, user agents, client
// addresses, ADX/DSP names) to dense int32 symbols, and the engine keys
// its per-host class/category, per-agent device, and per-address city
// caches by those symbols. Combined with the allocation-free nURL
// parser (nurl.Parser) and the scratch-buffer Encoder, the warm
// per-impression path — Step, EncodeInto, model estimate — performs
// zero heap allocations.
package detect

// Sym is a dense interned-string identifier. The zero value None means
// "not interned"; consumers fall back to string-keyed lookups for such
// records, so hand-built records with zero symbols stay fully
// supported.
type Sym int32

// None is the zero Sym: no symbol assigned.
const None Sym = 0

// Interner assigns dense symbols to strings within one namespace.
// It is not safe for concurrent mutation; producers intern while they
// generate, consumers use the symbols as plain integers afterwards.
type Interner struct {
	ids  map[string]Sym
	strs []string
}

// NewInterner returns an empty interner. Symbol 0 is reserved for None.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]Sym), strs: []string{""}}
}

// Intern returns the symbol for s, assigning the next dense id on first
// sight. The empty string always maps to None.
func (t *Interner) Intern(s string) Sym {
	if s == "" {
		return None
	}
	if id, ok := t.ids[s]; ok {
		return id
	}
	id := Sym(len(t.strs))
	t.strs = append(t.strs, s)
	t.ids[s] = id
	return id
}

// Lookup returns the symbol for s, or None when s was never interned.
func (t *Interner) Lookup(s string) Sym { return t.ids[s] }

// String returns the string behind a symbol ("" for None or unknown).
func (t *Interner) String(sym Sym) string {
	if sym <= 0 || int(sym) >= len(t.strs) {
		return ""
	}
	return t.strs[sym]
}

// Len returns the number of interned strings (excluding None).
func (t *Interner) Len() int { return len(t.strs) - 1 }

// SymbolTable groups the interner namespaces of one trace or stream.
// Hosts covers request hosts and publisher domains, Agents the
// User-Agent strings, Addrs the client IP addresses, and Names the ad
// entities (ADX and DSP names). Low-cardinality features — cities,
// OSes, device types, slots, IAB categories — already travel as dense
// typed enums (geoip.City, useragent.OS, rtb.Slot, iab.Category) and
// the Encoder consumes those directly.
type SymbolTable struct {
	Hosts  *Interner
	Agents *Interner
	Addrs  *Interner
	Names  *Interner
}

// NewSymbolTable returns a table with all namespaces ready.
func NewSymbolTable() *SymbolTable {
	return &SymbolTable{
		Hosts:  NewInterner(),
		Agents: NewInterner(),
		Addrs:  NewInterner(),
		Names:  NewInterner(),
	}
}
