package detect

import (
	"testing"

	"yourandvalue/internal/geoip"
	"yourandvalue/internal/iab"
	"yourandvalue/internal/rtb"
	"yourandvalue/internal/useragent"
)

func TestInterner(t *testing.T) {
	in := NewInterner()
	if in.Len() != 0 {
		t.Fatal("new interner not empty")
	}
	a := in.Intern("alpha")
	b := in.Intern("beta")
	if a == None || b == None || a == b {
		t.Fatalf("syms = %d, %d", a, b)
	}
	if in.Intern("alpha") != a {
		t.Error("re-intern changed the symbol")
	}
	if in.Lookup("beta") != b || in.Lookup("gamma") != None {
		t.Error("lookup")
	}
	if in.String(a) != "alpha" || in.String(None) != "" || in.String(99) != "" {
		t.Error("string round trip")
	}
	if in.Intern("") != None {
		t.Error("empty string must intern to None")
	}
	if in.Len() != 2 {
		t.Errorf("len = %d, want 2", in.Len())
	}
}

func TestSymbolTableNamespaces(t *testing.T) {
	st := NewSymbolTable()
	h := st.Hosts.Intern("example.com")
	a := st.Agents.Intern("example.com") // same string, different namespace
	if h != 1 || a != 1 {
		t.Errorf("namespaces must count independently: %d, %d", h, a)
	}
}

// TestEncoderMatchesHistoricalLayout locks the vector layout against the
// exact name sequence core.NewSFeatures historically produced.
func TestEncoderMatchesHistoricalLayout(t *testing.T) {
	e := NewEncoder(nil)
	names := e.Names()
	// 10 cities + 2 origins + 3 devices + 3 oses + 6 hourbins + 7 dows +
	// weekend + 19 slots + 3 slot scalars + 26 iabs + 9 adxs.
	want := 10 + 2 + 3 + 3 + 6 + 7 + 1 + 19 + 3 + 26 + 9
	if len(names) != want {
		t.Fatalf("dim = %d, want %d", len(names), want)
	}
	if names[0] != "city=Madrid" || names[10] != "origin=app" {
		t.Errorf("prefix order changed: %q, %q", names[0], names[10])
	}
	if names[len(names)-1] != "adx=Turn" {
		t.Errorf("suffix order changed: %q", names[len(names)-1])
	}
	withPubs := NewEncoder([]string{"a.example", "b.example"})
	if withPubs.Dim() != e.Dim()+2 || !withPubs.HasPublishers() {
		t.Error("publisher features not appended")
	}
}

// TestEncoderRoundTripFromNames: a rebuilt encoder (the model-decode
// path) must encode bit-identically to the constructed one.
func TestEncoderRoundTripFromNames(t *testing.T) {
	orig := NewEncoder([]string{"pub.example"})
	rebuilt := EncoderFromNames(orig.Names())
	s := Sample{
		City: geoip.Barcelona, Origin: useragent.MobileApp,
		Device: useragent.Tablet, OS: useragent.IOS,
		Hour: 14, Weekday: 6, Slot: rtb.Slot300x250,
		Category: iab.News, ADX: "OpenX", Publisher: "pub.example",
	}
	a := make([]float64, orig.Dim())
	b := make([]float64, rebuilt.Dim())
	orig.EncodeSampleInto(a, s)
	rebuilt.EncodeSampleInto(b, s)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %q: %v vs %v", orig.Names()[i], a[i], b[i])
		}
	}
	nonzero := 0
	for _, v := range a {
		if v != 0 {
			nonzero++
		}
	}
	// city, origin, device, os, hourbin, dow, weekend, slot + 3 scalars,
	// iab, adx, pub.
	if nonzero != 14 {
		t.Errorf("nonzero = %d, want 14", nonzero)
	}
}

// TestEncodeStringsMatchesTyped: the string-context path must hit the
// same positions as the typed path for equivalent inputs.
func TestEncodeStringsMatchesTyped(t *testing.T) {
	e := NewEncoder(nil)
	typed := make([]float64, e.Dim())
	strs := make([]float64, e.Dim())
	e.EncodeSampleInto(typed, Sample{
		City: geoip.Madrid, Origin: useragent.MobileWeb,
		Device: useragent.Smartphone, OS: useragent.Android,
		Hour: 9, Weekday: 3, Slot: rtb.Slot{W: 320, H: 50},
		Category: iab.Business, ADX: "MoPub",
	})
	e.EncodeStringsInto(strs, StringContext{
		City: "Madrid", Origin: "web", Device: "Smartphone", OS: "Android",
		Hour: 9, Weekday: 3, Slot: "320x50", IAB: "IAB3", ADX: "MoPub",
	})
	for i := range typed {
		if typed[i] != strs[i] {
			t.Fatalf("divergence at %q: typed %v, strings %v", e.Names()[i], typed[i], strs[i])
		}
	}
}

func TestEncodeIntoWrongLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("short buffer must panic")
		}
	}()
	NewEncoder(nil).EncodeSampleInto(make([]float64, 3), Sample{})
}

func TestParseSlot(t *testing.T) {
	if w, h, ok := ParseSlot("300x250"); !ok || w != 300 || h != 250 {
		t.Errorf("ParseSlot(300x250) = %d, %d, %v", w, h, ok)
	}
	for _, bad := range []string{"300x", "x250", "-1x-1", "", "axb", "300"} {
		if _, _, ok := ParseSlot(bad); ok {
			t.Errorf("ParseSlot(%q) accepted", bad)
		}
	}
}

// TestSwitchEvictsCaches pins the bounded-memory contract: a user who
// switches address or agent evicts the displaced cache entry, so the
// address and agent caches hold at most one address and two agents per
// user, on both the symbol-keyed and the string-keyed paths.
func TestSwitchEvictsCaches(t *testing.T) {
	eng := NewEngine(Config{})
	agents := []string{
		"Mozilla/5.0 (Linux; Android 6.0) Mobile",
		"Mozilla/5.0 (iPhone; CPU iPhone OS 9_0 like Mac OS X)",
		"Mozilla/5.0 (Windows NT 10.0; Win64; x64)",
	}
	cities := []geoip.City{geoip.Madrid, geoip.Barcelona, geoip.Madrid}
	for i, ua := range agents {
		interned := Record{
			UserID: 1, Host: "elpais.es", URL: "http://elpais.es/",
			UserAgent: ua, ClientIP: geoip.AddrFor(cities[i], uint16(i)),
			HostSym: 1, AgentSym: Sym(i + 1), AddrSym: Sym(i + 1),
		}
		plain := Record{
			UserID: 2, Host: "elmundo.es", URL: "http://elmundo.es/",
			UserAgent: ua, ClientIP: geoip.AddrFor(cities[i], uint16(10+i)),
		}
		for _, rec := range []Record{interned, plain} {
			// Page views skip UA parsing, so warm the device cache too.
			eng.device(rec.UserAgent, rec.AgentSym, eng.user(rec.UserID))
			if em := eng.Step(rec); em.City != cities[i] {
				t.Fatalf("step %d: city %v, want %v", i, em.City, cities[i])
			}
		}
	}
	if len(eng.addrsBySym) != 1 || len(eng.addrsByIP) != 1 ||
		len(eng.agentsBySym) != 2 || len(eng.agentsByUA) != 2 {
		t.Fatalf("caches not bounded: %d/%d addrs, %d/%d agents; want 1/1 and 2/2",
			len(eng.addrsBySym), len(eng.addrsByIP), len(eng.agentsBySym), len(eng.agentsByUA))
	}
}
