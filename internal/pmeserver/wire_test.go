package pmeserver

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"yourandvalue/internal/pme"
)

// wireItems returns n items shaped like the benchmark's: an observed
// timestamp and every string feature but IAB.
func wireItems(n int) []EstimateItem {
	adxs := []string{"DoubleClick", "MoPub", "OpenX", "Rubicon"}
	cities := []string{"Madrid", "Barcelona", "Valencia", "Unknown"}
	t0 := time.Date(2016, 5, 3, 9, 30, 0, 0, time.UTC)
	items := make([]EstimateItem, n)
	for i := range items {
		items[i] = EstimateItem{
			Observed: t0.Add(time.Duration(i) * 37 * time.Minute),
			ADX:      adxs[i%len(adxs)],
			City:     cities[i%len(cities)],
			OS:       []string{"Android", "iOS", "Windows"}[i%3],
			Device:   []string{"Smartphone", "Tablet", "PC"}[i%3],
			Origin:   []string{"app", "web"}[i%2],
			Slot:     []string{"300x250", "728x90", "320x50"}[i%3],
		}
	}
	return items
}

func wireBatchBody(tb testing.TB, items []EstimateItem) []byte {
	tb.Helper()
	body, err := json.Marshal(EstimateRequest{Items: items})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

func wireStreamBody(tb testing.TB, items []EstimateItem) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, it := range items {
		if err := enc.Encode(it); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// wireSeeds are the fuzz corpus's item objects: the plain shape and
// every way out of it the scanner must hand to encoding/json.
var wireSeeds = []string{
	`{}`,
	`{"observed":"2016-05-03T09:30:00Z","adx":"DoubleClick","city":"Madrid","os":"Android","device":"Smartphone","origin":"app","slot":"300x250"}`,
	`{"observed":"2016-05-03T09:30:00.123456789+02:00","adx":"MoPub","iab":"IAB3","hour":9,"weekday":2}`,
	`{"adx":"Rubicon","hour":22,"weekday":6}`,
	` { "adx" : "OpenX" , "hour" : -0 } `,
	`{"adx":"Mo\u0050ub","city":"C\u00e1diz"}`,
	`{"adx":"MoPub","city":"Cádiz"}`,
	`{"adx":"a\"b\\c\/d\n"}`,
	`{"ADX":"MoPub","Hour":3}`,
	`{"adx":"MoPub","unknown":{"a":[1,2,null]}}`,
	`{"adx":null,"observed":null,"hour":null}`,
	`{"hour":1.0}`,
	`{"hour":1e2}`,
	`{"hour":-0}`,
	`{"hour":01}`,
	`{"hour":1234567890123}`,
	`{"hour":"9"}`,
	`{"adx":"MoPub","adx":"OpenX"}`,
	`{"observed":"2016-05-03T09:30:00Z","observed":"bad"}`,
	`{"observed":"2016-13-03T09:30:00Z"}`,
	`{"adx":"MoPub"} trailing`,
	`{"adx":"MoPub"}{}`,
	`{"adx":"MoPub",}`,
	`{"adx":"MoPub"`,
	"{\"adx\":\"Mo\tPub\"}",
	"{\"adx\":\"Mo\xffPub\"}",
	`[]`,
	`null`,
}

// checkWireDecode is the differential oracle both fuzz targets share:
// whenever fast reports ok, ref must succeed with a deeply equal result
// that does not alias the input; and the full decode must agree with ref
// on both the result and whether it errors.
func checkWireDecode[T any](t *testing.T, data []byte,
	fast func([]byte) (T, bool), full func([]byte) (T, error), ref func([]byte, *T) error) {
	var want T
	refErr := ref(data, &want)

	in := bytes.Clone(data)
	got, ok := fast(in)
	if ok {
		if refErr != nil {
			t.Fatalf("fast path accepted %q; encoding/json: %v", data, refErr)
		}
		for i := range in {
			in[i] = 0xff // decoded strings must not alias the input
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fast path on %q:\n got %+v\nwant %+v", data, got, want)
		}
	}

	got, err := full(bytes.Clone(data))
	if (err != nil) != (refErr != nil) {
		t.Fatalf("decode %q: err %v, encoding/json err %v", data, err, refErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("decode %q:\n got %+v\nwant %+v", data, got, want)
	}
}

func FuzzDecodeEstimateItem(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	for _, line := range bytes.Split(wireStreamBody(f, wireItems(8)), []byte{'\n'}) {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkWireDecode(t, line, scanEstimateItem, decodeEstimateItem,
			func(b []byte, it *pme.EstimateItem) error { return json.Unmarshal(b, it) })
	})
}

func FuzzDecodeEstimateRequest(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(`{"items":[` + s + `]}`))
	}
	for _, s := range []string{
		`{}`, `{"items":[]}`, `{"items":null}`, `null`, ``, `[]`,
		`{"items":[{"adx":"MoPub"},{"adx":"OpenX","hour":3}]} trailing {garbage`,
		`{"items":[{"adx":"MoPub"}]}{"items":[]}`,
		`{"items":[{"adx":"MoPub"},]}`,
		`{"Items":[{"adx":"MoPub"}]}`,
		`{"items":[{"adx":"MoPub"}],"extra":1}`,
		`{"items":[{"adx":"MoPub","city":"x"}],"items":[{"adx":"OpenX"}]}`,
		"\t{ \"items\" : [ { \"adx\" : \"MoPub\" } ] }\r\n",
	} {
		f.Add([]byte(s))
	}
	f.Add(wireBatchBody(f, wireItems(8)))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkWireDecode(t, body, scanEstimateRequest, decodeEstimateRequest,
			func(b []byte, req *EstimateRequest) error {
				return json.NewDecoder(bytes.NewReader(b)).Decode(req)
			})
	})
}

// TestWireScannerTakesPlainShape guards the point of the scanner: the
// bodies and lines clients marshal must not fall back to encoding/json.
func TestWireScannerTakesPlainShape(t *testing.T) {
	items := wireItems(64)
	if _, ok := scanEstimateRequest(wireBatchBody(t, items)); !ok {
		t.Error("marshalled batch body fell back to encoding/json")
	}
	for i, line := range bytes.Split(bytes.TrimSpace(wireStreamBody(t, items)), []byte{'\n'}) {
		if _, ok := scanEstimateItem(line); !ok {
			t.Errorf("marshalled stream line %d fell back to encoding/json: %s", i, line)
		}
	}
}

func TestEstimateReplyMatchesEncodingJSON(t *testing.T) {
	check := func(version int, cpms []float64) {
		t.Helper()
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(EstimateResponse{ModelVersion: version, EstimatesCPM: cpms})
		got, ok := appendEstimateReply([]byte("prefix"), version, cpms)
		if ok != (wantErr == nil) {
			t.Fatalf("version %d cpms %v: ok %v, encoding/json err %v", version, cpms, ok, wantErr)
		}
		if ok && !bytes.Equal(got[len("prefix"):], want.Bytes()) {
			t.Fatalf("version %d:\n got %s\nwant %s", version, got[len("prefix"):], want.Bytes())
		}
	}
	edges := []float64{
		0, math.Copysign(0, -1), 1e-7, 1e-6, 9.99e20, 1e21, 1.5e-10, 1e-100,
		math.SmallestNonzeroFloat64, math.MaxFloat64, 0.1, 1.0 / 3, 123456789.125, 2.5,
	}
	for _, v := range []int{0, 1, 7, math.MaxInt32, math.MaxInt64, -1} {
		for _, f := range edges {
			check(v, []float64{f})
			check(v, []float64{-f})
		}
		check(v, nil)
		check(v, []float64{})
	}
	check(3, edges)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		check(3, []float64{1, bad})
	}

	rng := rand.New(rand.NewSource(1))
	random := func() float64 {
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
	batch := make([]float64, 4096)
	for i := range batch {
		batch[i] = random()
	}
	check(math.MaxInt64, batch)
	for range 10_000 {
		check(rng.Intn(1<<20), []float64{random()})
	}
}

// TestV2BodyTooLarge: a body past the 1 MiB cap answers 413
// body_too_large on both body-reading v2 routes.
func TestV2BodyTooLarge(t *testing.T) {
	srv, _ := New(testModel(t))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for path, body := range map[string]string{
		"/v2/estimate":   `{"items":[` + strings.Repeat(`{"adx":"MoPub"},`, (maxBodyBytes/16)+1) + `{"adx":"MoPub"}]}`,
		"/v2/contribute": `[` + strings.Repeat(`{"adx":"MoPub","price_cpm":0.5},`, (maxBodyBytes/32)+1) + `{"adx":"MoPub","price_cpm":0.5}]`,
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Error apiError `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusRequestEntityTooLarge || out.Error.Code != "body_too_large" {
			t.Errorf("%s: status %d code %q (%v), want 413 body_too_large", path, resp.StatusCode, out.Error.Code, err)
		}
	}
}

// discardWriter is a ResponseWriter that keeps one header map and
// counts the bytes written.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *discardWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.n += len(b)
	return len(b), nil
}

// handlerRun serves one request for body on path through the server's
// handler chain, reusing the request, body reader and writer between
// calls so that only the serving code allocates.
type handlerRun struct {
	h    http.Handler
	body []byte
	rd   *bytes.Reader
	req  *http.Request
	w    discardWriter
}

func newHandlerRun(tb testing.TB, path string, body []byte) *handlerRun {
	tb.Helper()
	srv, err := New(testModel(tb))
	if err != nil {
		tb.Fatal(err)
	}
	r := &handlerRun{h: srv.Handler(), body: body, rd: bytes.NewReader(body), w: discardWriter{h: http.Header{}}}
	r.req = httptest.NewRequest(http.MethodPost, path, nil)
	r.req.Body = io.NopCloser(r.rd)
	return r
}

func (r *handlerRun) serve(tb testing.TB) {
	r.rd.Reset(r.body)
	clear(r.w.h)
	r.w.status, r.w.n = 0, 0
	r.h.ServeHTTP(&r.w, r.req)
	if r.w.status != http.StatusOK || r.w.n == 0 {
		tb.Fatalf("status %d, %d bytes", r.w.status, r.w.n)
	}
}

// maxHandlerAllocs is the measured warm count (amd64, go1.24): the
// body string and the items, the service's result and its estimates,
// the ETag and Content-Type values and the ETag key's canonical form,
// the MaxBytesReader, and the metrics middleware's status writer.
// Decoding with encoding/json took 73.
const maxHandlerAllocs = 9

// TestEstimateV2HandlerAllocs pins the allocations of a warm 8-item
// /v2/estimate request through the whole handler chain.
func TestEstimateV2HandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	run := newHandlerRun(t, "/v2/estimate", wireBatchBody(t, wireItems(8)))
	if a := testing.AllocsPerRun(100, func() { run.serve(t) }); a > maxHandlerAllocs {
		t.Errorf("warm 8-item /v2/estimate: %v allocs/op, want <= %d", a, maxHandlerAllocs)
	}
}

func BenchmarkEstimateV2Handler(b *testing.B) {
	for _, bc := range []struct {
		name, path string
		items      int
		body       func(testing.TB, []EstimateItem) []byte
	}{
		{"batch8", "/v2/estimate", 8, wireBatchBody},
		{"batch4096", "/v2/estimate", 4096, wireBatchBody},
		{"stream4096", "/v2/estimate/stream", 4096, wireStreamBody},
	} {
		b.Run(bc.name, func(b *testing.B) {
			run := newHandlerRun(b, bc.path, bc.body(b, wireItems(bc.items)))
			run.serve(b)
			b.SetBytes(int64(len(run.body)))
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				run.serve(b)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.items), "ns/item")
		})
	}
}
