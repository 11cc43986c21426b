package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"yourandvalue/internal/geoip"
	"yourandvalue/internal/nurl"
	"yourandvalue/internal/pme"
	"yourandvalue/internal/pmeserver"
	"yourandvalue/internal/scenario"
	"yourandvalue/internal/useragent"
	"yourandvalue/internal/weblog"
)

const (
	// smallItems is the size of one /v2/estimate request: one browsing
	// session's encrypted impressions.
	smallItems = 8
	// streamItems is the size of one /v2/estimate/stream request.
	streamItems = 4096
	// streamBodies is how many distinct stream bodies the inputs hold;
	// each is a different window over the trace's encrypted items.
	streamBodies = 8
	// contribBatch is the size of one /v2/contribute request.
	contribBatch = 64
)

// payloads are the anonymous uploads a YourAdValue client derives from a
// weblog: an estimate query per encrypted price notification and a
// contribution per cleartext one.
type payloads struct {
	items    []pme.EstimateItem
	itemUser []int // user of items[i]
	contribs []pme.Contribution
}

// convert turns weblog requests into client payloads through the public
// parsers: nurl for the notification, useragent for the device and geoip
// for the city.
func convert(reqs []weblog.Request) payloads {
	reg, geo := nurl.Default(), geoip.Default()
	var p payloads
	for _, r := range reqs {
		n, ok := reg.Parse(r.URL)
		if !ok || n.Kind == nurl.NoPrice {
			continue
		}
		dev := useragent.Parse(r.UserAgent)
		origin := "web"
		if dev.Origin == useragent.MobileApp {
			origin = "app"
		}
		slot := ""
		if n.Width > 0 && n.Height > 0 {
			slot = nurl.SlotSize(n.Width, n.Height)
		}
		city := geo.LookupString(r.ClientIP).String()
		if n.Kind == nurl.Encrypted {
			p.items = append(p.items, pme.EstimateItem{
				Observed: r.Time, ADX: n.ADX, City: city,
				OS: dev.OS.String(), Device: dev.Type.String(), Origin: origin, Slot: slot,
			})
			p.itemUser = append(p.itemUser, r.UserID)
			continue
		}
		c := pme.Contribution{
			Observed: r.Time, ADX: n.ADX, PriceCPM: n.PriceCPM, City: city,
			OS: dev.OS.String(), Device: dev.Type.String(), Origin: origin, Slot: slot,
		}
		if c.Validate() == nil && c.Trainable() {
			p.contribs = append(p.contribs, c)
		}
	}
	return p
}

// request is one pre-encoded request body plus the items the server
// decodes from it, which are what the oracle estimates.
type request struct {
	body  []byte
	items []pme.EstimateItem
}

// inputs are every request a serving workload sends, encoded before
// timing starts.
type inputs struct {
	small    []*request         // /v2/estimate bodies
	stream   []*request         // /v2/estimate/stream NDJSON bodies
	contribs [][]byte           // /v2/contribute bodies
	pool     []pme.Contribution // the contributions of contribs, in order
	digest   string
}

// traceFor generates the seeded baseline-scenario weblog the inputs come
// from.
func traceFor(seed int64, scale float64) *weblog.Trace {
	cfg := scenario.Default().TraceConfig(seed, scale)
	cfg.Workers = conns
	return weblog.Generate(cfg)
}

// buildInputs generates the trace for seed at scale and encodes every
// request body. The same seed and scale give byte-identical bodies.
//
// The estimate items come from the trace of seed. The contributions come
// from the trace of cmd/pme's own seed, the crowd the bootstrap trains
// on, and are the same for every seed: what a retrain costs depends on
// the samples it trains on, so a crowd that changed with the seed would
// move retrain_s from run to run.
func buildInputs(seed int64, scale float64) (*inputs, error) {
	p := convert(traceFor(seed, scale).Requests)
	crowd := p.contribs
	if seed != pmeSeed {
		crowd = convert(traceFor(pmeSeed, scale).Requests).contribs
	}
	if len(p.items) == 0 || len(crowd) < contribBatch {
		return nil, fmt.Errorf("traces at scale %g have %d encrypted (seed %d) and %d cleartext (seed %d) notifications; too few to build requests",
			scale, len(p.items), seed, len(crowd), pmeSeed)
	}
	in := &inputs{}

	// One /v2/estimate body per run of smallItems consecutive encrypted
	// impressions of one user, users in order of first appearance.
	byUser := make(map[int][]pme.EstimateItem)
	var users []int
	for i, it := range p.items {
		u := p.itemUser[i]
		if _, seen := byUser[u]; !seen {
			users = append(users, u)
		}
		byUser[u] = append(byUser[u], it)
	}
	for _, u := range users {
		its := byUser[u]
		for k := 0; k+smallItems <= len(its); k += smallItems {
			r, err := encodeEstimate(its[k : k+smallItems])
			if err != nil {
				return nil, err
			}
			in.small = append(in.small, r)
		}
	}
	if len(in.small) == 0 {
		return nil, errors.New("no user in the trace has a full session of encrypted impressions")
	}

	for b := 0; b < streamBodies; b++ {
		start := b * len(p.items) / streamBodies
		items := make([]pme.EstimateItem, streamItems)
		for j := range items {
			items[j] = p.items[(start+j)%len(p.items)]
		}
		r, err := encodeStream(items)
		if err != nil {
			return nil, err
		}
		in.stream = append(in.stream, r)
	}

	for k := 0; k+contribBatch <= len(crowd); k += contribBatch {
		body, err := json.Marshal(crowd[k : k+contribBatch])
		if err != nil {
			return nil, err
		}
		in.contribs = append(in.contribs, body)
		in.pool = append(in.pool, crowd[k:k+contribBatch]...)
	}
	in.digest = digest(in)
	return in, nil
}

// encodeEstimate encodes a /v2/estimate body and decodes it back the way
// the server will.
func encodeEstimate(items []pme.EstimateItem) (*request, error) {
	body, err := json.Marshal(pmeserver.EstimateRequest{Items: items})
	if err != nil {
		return nil, err
	}
	var back pmeserver.EstimateRequest
	if err := json.Unmarshal(body, &back); err != nil {
		return nil, err
	}
	return &request{body: body, items: back.Items}, nil
}

// encodeStream encodes an NDJSON /v2/estimate/stream body and decodes it
// back line by line, as the server will.
func encodeStream(items []pme.EstimateItem) (*request, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range items {
		if err := enc.Encode(&items[i]); err != nil {
			return nil, err
		}
	}
	r := &request{body: buf.Bytes(), items: make([]pme.EstimateItem, 0, len(items))}
	sc := bufio.NewScanner(bytes.NewReader(r.body))
	for sc.Scan() {
		var it pme.EstimateItem
		if err := json.Unmarshal(sc.Bytes(), &it); err != nil {
			return nil, err
		}
		r.items = append(r.items, it)
	}
	return r, sc.Err()
}

// digest is a short hash over every request body, in send order.
func digest(in *inputs) string {
	h := sha256.New()
	write := func(b []byte) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	for _, r := range in.small {
		write(r.body)
	}
	for _, r := range in.stream {
		write(r.body)
	}
	for _, b := range in.contribs {
		write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
