package detect

import (
	"strconv"
	"strings"

	"yourandvalue/internal/geoip"
	"yourandvalue/internal/iab"
	"yourandvalue/internal/rtb"
	"yourandvalue/internal/useragent"
)

// SlotVocabulary is the ad-format vocabulary of the S space: the 17
// Figure 12 sizes plus the two tablet formats of the Table 5 campaigns.
var SlotVocabulary = append(append([]rtb.Slot(nil), rtb.FigureSlots...),
	rtb.Slot768x1024, rtb.Slot1024x768)

// ADXVocabulary is the ad-exchange vocabulary of the S space (the nine
// entities of the paper's Table 1 and §5 campaigns).
var ADXVocabulary = []string{
	"MoPub", "AppNexus", "DoubleClick", "OpenX", "Rubicon",
	"PulsePoint", "MediaMath", "myThings", "Turn",
}

// Encoder owns the one-hot layout of the reduced feature space S ⊆ F
// selected in §5.1 and encodes every producer — typed impressions,
// campaign-style samples, and thin-client string contexts — into the
// same vector positions. All EncodeInto variants write into a
// caller-owned buffer and perform no heap allocation, so a reused
// scratch slice makes per-impression encoding allocation-free.
type Encoder struct {
	names []string
	index map[string]int

	// Hot-path resolution tables, rebuilt from names so a JSON-decoded
	// layout encodes exactly like a freshly constructed one.
	cityIdx    []int // by geoip.City
	cityByName map[string]int
	originApp  int
	originWeb  int
	devIdx     []int // by useragent.DeviceType
	devByName  map[string]int
	osIdx      []int // by useragent.OS
	osByName   map[string]int
	hourbinIdx [6]int
	dowIdx     [7]int
	weekendIdx int
	slotIdx    map[rtb.Slot]int
	slotW      int
	slotH      int
	slotArea   int
	iabIdx     []int // by iab.Category
	iabByName  map[string]int
	adxIdx     map[string]int
	pubIdx     map[string]int
}

// NewEncoder builds the standard S layout: cities, origin, device type,
// OS, hour bins, day of week, weekend, ad format, IAB category and
// ad-exchange, optionally followed by publisher-identity features (the
// §5.4 overfitting ablation; pass nil for the production model).
func NewEncoder(publishers []string) *Encoder {
	var names []string
	for _, c := range geoip.AllCities() {
		names = append(names, "city="+c.String())
	}
	names = append(names, "origin=app", "origin=web",
		"device=Smartphone", "device=Tablet", "device=PC",
		"os=Android", "os=iOS", "os=Windows Mob")
	for b := 0; b < 6; b++ {
		names = append(names, "hourbin="+rtb.HourBinLabel(b))
	}
	for d := 0; d < 7; d++ {
		names = append(names, "dow="+DowName(d))
	}
	names = append(names, "weekend")
	for _, sl := range SlotVocabulary {
		names = append(names, "slot="+sl.String())
	}
	names = append(names, "slot_width", "slot_height", "slot_area")
	for _, c := range iab.All() {
		names = append(names, "iab="+c.String())
	}
	for _, a := range ADXVocabulary {
		names = append(names, "adx="+a)
	}
	for _, p := range publishers {
		names = append(names, "pub="+p)
	}
	return EncoderFromNames(names)
}

// EncoderFromNames reconstructs an encoder from a serialized feature
// name list (the JSON form a distributed model carries). Names the
// standard vocabularies do not know simply occupy their index; when a
// duplicated name appears, the last position wins, matching the
// historical index-map semantics.
func EncoderFromNames(names []string) *Encoder {
	e := &Encoder{
		names:      append([]string(nil), names...),
		index:      make(map[string]int, len(names)),
		cityByName: make(map[string]int),
		devByName:  make(map[string]int),
		osByName:   make(map[string]int),
		iabByName:  make(map[string]int),
		adxIdx:     make(map[string]int),
		pubIdx:     make(map[string]int),
		slotIdx:    make(map[rtb.Slot]int),
	}
	for i, n := range e.names {
		e.index[n] = i
	}
	// Group maps keyed by the bare value, so string-context encoding
	// needs no per-call key concatenation.
	for i, n := range e.names {
		switch {
		case strings.HasPrefix(n, "city="):
			e.cityByName[n[len("city="):]] = i
		case strings.HasPrefix(n, "device="):
			e.devByName[n[len("device="):]] = i
		case strings.HasPrefix(n, "os="):
			e.osByName[n[len("os="):]] = i
		case strings.HasPrefix(n, "iab="):
			e.iabByName[n[len("iab="):]] = i
		case strings.HasPrefix(n, "adx="):
			e.adxIdx[n[len("adx="):]] = i
		case strings.HasPrefix(n, "pub="):
			e.pubIdx[n[len("pub="):]] = i
		case strings.HasPrefix(n, "slot="):
			if w, h, ok := ParseSlot(n[len("slot="):]); ok {
				e.slotIdx[rtb.Slot{W: w, H: h}] = i
			}
		}
	}
	at := func(name string) int {
		if i, ok := e.index[name]; ok {
			return i
		}
		return -1
	}
	e.originApp, e.originWeb = at("origin=app"), at("origin=web")
	e.weekendIdx = at("weekend")
	e.slotW, e.slotH, e.slotArea = at("slot_width"), at("slot_height"), at("slot_area")
	e.cityIdx = make([]int, geoip.NumCities+1)
	e.cityIdx[0] = -1
	for _, c := range geoip.AllCities() {
		e.cityIdx[c] = lookupOr(e.cityByName, c.String())
	}
	e.devIdx = make([]int, int(useragent.PC)+1)
	for d := range e.devIdx {
		e.devIdx[d] = lookupOr(e.devByName, useragent.DeviceType(d).String())
	}
	e.osIdx = make([]int, int(useragent.WindowsMobile)+1)
	for o := range e.osIdx {
		e.osIdx[o] = lookupOr(e.osByName, useragent.OS(o).String())
	}
	for b := 0; b < 6; b++ {
		e.hourbinIdx[b] = at("hourbin=" + rtb.HourBinLabel(b))
	}
	for d := 0; d < 7; d++ {
		e.dowIdx[d] = at("dow=" + DowName(d))
	}
	e.iabIdx = make([]int, iab.NumCategories+1)
	e.iabIdx[0] = -1
	for _, c := range iab.All() {
		e.iabIdx[c] = lookupOr(e.iabByName, c.String())
	}
	return e
}

func lookupOr(m map[string]int, k string) int {
	if i, ok := m[k]; ok {
		return i
	}
	return -1
}

// Names returns the feature names in vector order (shared slice; do not
// mutate).
func (e *Encoder) Names() []string { return e.names }

// Dim returns the vector dimensionality.
func (e *Encoder) Dim() int { return len(e.names) }

// HasPublishers reports whether identity features are included.
func (e *Encoder) HasPublishers() bool { return len(e.pubIdx) > 0 }

// Sample is the typed feature bundle every detection producer reduces
// to: campaign records, analyzed impressions, and live notifications
// all carry exactly these S inputs.
type Sample struct {
	City      geoip.City
	Origin    useragent.Origin
	Device    useragent.DeviceType
	OS        useragent.OS
	Hour      int // 0-23
	Weekday   int // 0 = Sunday
	Slot      rtb.Slot
	Category  iab.Category
	ADX       string
	Publisher string
}

// StringContext is the string-typed ambient context a thin client ships
// to the PME's batch estimation endpoint (/v2/estimate), where neither
// an analyzer impression nor a typed client context exists. Unknown
// values simply leave their one-hot positions zero.
type StringContext struct {
	ADX     string // exchange name, e.g. "DoubleClick"
	City    string // e.g. "Madrid"
	OS      string // "Android", "iOS", "Windows Mob"
	Device  string // "Smartphone", "Tablet", "PC"
	Origin  string // "app" or "web"
	Slot    string // "WxH", e.g. "300x250"
	IAB     string // e.g. "IAB3"
	Hour    int    // 0-23 local hour
	Weekday int    // 0 = Sunday
}

func (e *Encoder) reset(dst []float64) {
	if len(dst) != len(e.names) {
		panic("detect: EncodeInto buffer length must equal Encoder.Dim()")
	}
	for i := range dst {
		dst[i] = 0
	}
}

func (e *Encoder) set(dst []float64, idx int, v float64) {
	if idx >= 0 {
		dst[idx] = v
	}
}

// EncodeSampleInto writes the S vector of a typed sample into dst
// (len(dst) must equal Dim) without allocating.
func (e *Encoder) EncodeSampleInto(dst []float64, s Sample) {
	e.reset(dst)
	if s.City >= 0 && int(s.City) < len(e.cityIdx) {
		e.set(dst, e.cityIdx[s.City], 1)
	}
	// The typed paths resolve every non-app origin to the web position,
	// mirroring how the proxy-side analyzer labels traffic.
	if s.Origin == useragent.MobileApp {
		e.set(dst, e.originApp, 1)
	} else {
		e.set(dst, e.originWeb, 1)
	}
	if s.Device >= 0 && int(s.Device) < len(e.devIdx) {
		e.set(dst, e.devIdx[s.Device], 1)
	}
	if s.OS >= 0 && int(s.OS) < len(e.osIdx) {
		e.set(dst, e.osIdx[s.OS], 1)
	}
	e.set(dst, e.hourbinIdx[rtb.HourBin(s.Hour)], 1)
	if s.Weekday >= 0 && s.Weekday < 7 {
		e.set(dst, e.dowIdx[s.Weekday], 1)
	}
	if s.Weekday == 0 || s.Weekday == 6 {
		e.set(dst, e.weekendIdx, 1)
	}
	if s.Slot.W > 0 && s.Slot.H > 0 {
		if i, ok := e.slotIdx[s.Slot]; ok {
			dst[i] = 1
		}
		e.set(dst, e.slotW, float64(s.Slot.W))
		e.set(dst, e.slotH, float64(s.Slot.H))
		e.set(dst, e.slotArea, float64(s.Slot.Area()))
	}
	if s.Category >= 0 && int(s.Category) < len(e.iabIdx) {
		e.set(dst, e.iabIdx[s.Category], 1)
	}
	if i, ok := e.adxIdx[s.ADX]; ok {
		dst[i] = 1
	}
	if i, ok := e.pubIdx[s.Publisher]; ok {
		dst[i] = 1
	}
}

// EncodeInto writes the S vector of a detected impression into dst
// (len(dst) must equal Dim) without allocating — the per-impression
// hot path shared by batch estimation and EstimateCPM callers.
func (e *Encoder) EncodeInto(dst []float64, imp Impression) {
	n := imp.Notification
	e.EncodeSampleInto(dst, Sample{
		City:      imp.City,
		Origin:    imp.Device.Origin,
		Device:    imp.Device.Type,
		OS:        imp.Device.OS,
		Hour:      imp.Time.Hour(),
		Weekday:   int(imp.Time.Weekday()),
		Slot:      rtb.Slot{W: n.Width, H: n.Height},
		Category:  imp.Category,
		ADX:       n.ADX,
		Publisher: imp.Publisher,
	})
}

// EncodeStringsInto writes the S vector of a thin-client string context
// into dst (len(dst) must equal Dim) without allocating. Unknown values
// leave their positions zero, never panic.
func (e *Encoder) EncodeStringsInto(dst []float64, c StringContext) {
	e.reset(dst)
	if i, ok := e.cityByName[c.City]; ok {
		dst[i] = 1
	}
	switch c.Origin {
	case "app":
		e.set(dst, e.originApp, 1)
	case "web":
		e.set(dst, e.originWeb, 1)
	}
	if i, ok := e.devByName[c.Device]; ok {
		dst[i] = 1
	}
	if i, ok := e.osByName[c.OS]; ok {
		dst[i] = 1
	}
	e.set(dst, e.hourbinIdx[rtb.HourBin(c.Hour)], 1)
	if c.Weekday >= 0 && c.Weekday < 7 {
		e.set(dst, e.dowIdx[c.Weekday], 1)
	}
	if c.Weekday == 0 || c.Weekday == 6 {
		e.set(dst, e.weekendIdx, 1)
	}
	if w, h, ok := ParseSlot(c.Slot); ok {
		sl := rtb.Slot{W: w, H: h}
		if i, ok := e.slotIdx[sl]; ok {
			dst[i] = 1
		}
		e.set(dst, e.slotW, float64(w))
		e.set(dst, e.slotH, float64(h))
		e.set(dst, e.slotArea, float64(sl.Area()))
	}
	if i, ok := e.iabByName[c.IAB]; ok {
		dst[i] = 1
	}
	if i, ok := e.adxIdx[c.ADX]; ok {
		dst[i] = 1
	}
}

// ParseSlot reads a "WxH" ad-format string; malformed or non-positive
// dimensions report !ok.
func ParseSlot(s string) (w, h int, ok bool) {
	ws, hs, found := strings.Cut(s, "x")
	if !found {
		return 0, 0, false
	}
	w, errW := strconv.Atoi(ws)
	h, errH := strconv.Atoi(hs)
	if errW != nil || errH != nil || w <= 0 || h <= 0 {
		return 0, 0, false
	}
	return w, h, true
}

// DowName returns the day-of-week feature label (0 = Sunday), "?" when
// out of range.
func DowName(d int) string {
	names := [7]string{"Sunday", "Monday", "Tuesday", "Wednesday",
		"Thursday", "Friday", "Saturday"}
	if d < 0 || d >= len(names) {
		return "?"
	}
	return names[d]
}
