package pmeserver

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"sync"

	"yourandvalue/internal/pme"
)

// The v2 estimate wire format is decoded by a schema-specific scanner
// with encoding/json as its reference. The scanner accepts only the
// plain shape clients marshal: the exact lower-case EstimateItem keys,
// each at most once; string values of ASCII with no escapes or control
// bytes;
// hour and weekday as plain JSON integers; observed as a quoted
// timestamp read by time.Time.UnmarshalJSON, exactly as encoding/json
// reads it. Anything else (case-folded or unknown keys, escapes,
// non-ASCII, null, other number forms, duplicate keys, trailing bytes)
// makes it report !ok, and the caller decodes the same bytes with
// encoding/json, so errors and edge cases behave as encoding/json's do.
// The differential fuzz targets in wire_test.go hold the two together.

// decodeEstimateRequest decodes a POST /v2/estimate body. Its fallback
// is Decoder.Decode, which reads the first JSON value and ignores any
// bytes after it.
func decodeEstimateRequest(body []byte) (EstimateRequest, error) {
	if req, ok := scanEstimateRequest(body); ok {
		return req, nil
	}
	var req EstimateRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// decodeEstimateItem decodes one NDJSON line of POST /v2/estimate/stream.
func decodeEstimateItem(line []byte) (pme.EstimateItem, error) {
	if it, ok := scanEstimateItem(line); ok {
		return it, nil
	}
	var it pme.EstimateItem
	err := json.Unmarshal(line, &it)
	return it, err
}

// scanEstimateRequest is the fast path of decodeEstimateRequest:
// {"items":[item,...]} with only JSON whitespace around and inside it.
func scanEstimateRequest(body []byte) (EstimateRequest, bool) {
	var req EstimateRequest
	p := wireScanner{b: body, s: string(body)}
	if !p.consume('{') {
		return req, false
	}
	if !p.consume('}') {
		if key, ok := p.key(); !ok || key != "items" || !p.consume('[') {
			return req, false
		}
		// Each item opens one brace; the hint is capped so a body of
		// braces cannot size a huge slice before the scan rejects it.
		req.Items = make([]pme.EstimateItem, 0, min(bytes.Count(body, []byte{'{'})-1, pme.DefaultMaxBatch))
		if !p.consume(']') {
			for {
				var it pme.EstimateItem
				if !p.item(&it) {
					return req, false
				}
				req.Items = append(req.Items, it)
				if p.consume(',') {
					continue
				}
				if p.consume(']') {
					break
				}
				return req, false
			}
		}
		if !p.consume('}') {
			return req, false
		}
	}
	return req, p.end()
}

// scanEstimateItem is the fast path of decodeEstimateItem: one item
// object and nothing after it but JSON whitespace.
func scanEstimateItem(line []byte) (pme.EstimateItem, bool) {
	var it pme.EstimateItem
	p := wireScanner{b: line, s: string(line)}
	return it, p.item(&it) && p.end()
}

// wireScanner walks b; s is b copied once, so every decoded string is a
// substring of s and none aliases b, which may be a pooled buffer.
type wireScanner struct {
	b []byte
	s string
	i int
}

func (p *wireScanner) skipSpace() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was next.
func (p *wireScanner) consume(c byte) bool {
	p.skipSpace()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (p *wireScanner) end() bool {
	p.skipSpace()
	return p.i == len(p.b)
}

// quoted scans a string of ASCII with no escapes or control bytes and
// returns the offsets of its opening and closing quotes.
func (p *wireScanner) quoted() (lq, rq int, ok bool) {
	p.skipSpace()
	if p.i >= len(p.b) || p.b[p.i] != '"' {
		return 0, 0, false
	}
	for j := p.i + 1; j < len(p.b); j++ {
		switch c := p.b[j]; {
		case c == '"':
			lq, p.i = p.i, j+1
			return lq, j, true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return 0, 0, false
		}
	}
	return 0, 0, false
}

func (p *wireScanner) str() (string, bool) {
	lq, rq, ok := p.quoted()
	if !ok {
		return "", false
	}
	return p.s[lq+1 : rq], true
}

// key scans an object key and its colon.
func (p *wireScanner) key() (string, bool) {
	k, ok := p.str()
	return k, ok && p.consume(':')
}

// maxIntDigits keeps every accepted integer inside a 32-bit int, so an
// overflow is always left to encoding/json's error.
const maxIntDigits = 9

// integer scans -?(0|[1-9][0-9]*) of at most maxIntDigits digits. A
// fraction or exponent after it fails the caller's next consume.
func (p *wireScanner) integer() (int, bool) {
	p.skipSpace()
	j := p.i
	neg := j < len(p.b) && p.b[j] == '-'
	if neg {
		j++
	}
	start, n := j, 0
	for j < len(p.b) && j-start < maxIntDigits && '0' <= p.b[j] && p.b[j] <= '9' {
		n = n*10 + int(p.b[j]-'0')
		j++
	}
	if j == start || (p.b[start] == '0' && j-start > 1) ||
		(j < len(p.b) && '0' <= p.b[j] && p.b[j] <= '9') {
		return 0, false
	}
	p.i = j
	if neg {
		n = -n
	}
	return n, true
}

// item scans one EstimateItem object into it.
func (p *wireScanner) item(it *pme.EstimateItem) bool {
	if !p.consume('{') {
		return false
	}
	if p.consume('}') {
		return true
	}
	var seen uint16
	for {
		key, ok := p.key()
		if !ok {
			return false
		}
		var bit uint16
		switch key {
		case "adx":
			bit = 1 << 0
			it.ADX, ok = p.str()
		case "city":
			bit = 1 << 1
			it.City, ok = p.str()
		case "os":
			bit = 1 << 2
			it.OS, ok = p.str()
		case "device":
			bit = 1 << 3
			it.Device, ok = p.str()
		case "origin":
			bit = 1 << 4
			it.Origin, ok = p.str()
		case "slot":
			bit = 1 << 5
			it.Slot, ok = p.str()
		case "iab":
			bit = 1 << 6
			it.IAB, ok = p.str()
		case "hour":
			bit = 1 << 7
			it.Hour, ok = p.integer()
		case "weekday":
			bit = 1 << 8
			it.Weekday, ok = p.integer()
		case "observed":
			bit = 1 << 9
			var lq, rq int
			if lq, rq, ok = p.quoted(); ok {
				ok = it.Observed.UnmarshalJSON(p.b[lq:rq+1]) == nil
			}
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if p.consume(',') {
			continue
		}
		return p.consume('}')
	}
}

// appendEstimateReply appends exactly the bytes
// json.NewEncoder(w).Encode(EstimateResponse{version, cpms}) writes,
// newline included. It reports false on NaN or ±Inf, which
// encoding/json refuses to encode.
func appendEstimateReply(b []byte, version int, cpms []float64) ([]byte, bool) {
	b = append(b, `{"model_version":`...)
	b = strconv.AppendInt(b, int64(version), 10)
	b = append(b, `,"estimates_cpm":`...)
	if cpms == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, f := range cpms {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return b, false
			}
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONFloat(b, f)
		}
		b = append(b, ']')
	}
	return append(b, '}', '\n'), true
}

// appendJSONFloat formats a finite float64 the way encoding/json does:
// the shortest round-trip decimal, in exponent form below 1e-6 and from
// 1e21 up, with a single-digit negative exponent unpadded (e-7, not
// e-07).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// wireBufs pools the byte buffers /v2/estimate reads its body into and
// writes its reply from. Decoded strings never alias them (see
// wireScanner).
var wireBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

// maxPooledWireBuf keeps an occasional outsized reply from pinning its
// buffer in the pool; bodies are capped at 1 MiB and always fit.
const maxPooledWireBuf = 2 << 20

func putWireBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledWireBuf {
		*bp = (*bp)[:0]
		wireBufs.Put(bp)
	}
}
