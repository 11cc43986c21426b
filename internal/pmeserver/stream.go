package pmeserver

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"yourandvalue/internal/core"
	"yourandvalue/internal/pme"
)

// POST /v2/estimate/stream is the unbounded-batch form of /v2/estimate:
// the request body is NDJSON (one EstimateItem object per line), the
// response is NDJSON (one {"cpm":N} line per item, in order, then a
// {"done":true,...} trailer). The server holds one model snapshot and
// one scratch vector for the whole stream — memory stays bounded no
// matter how many items flow through, and a concurrent registry
// hot-swap never changes the model mid-stream. Response headers carry
// the pinned version (ETag, X-PME-Model-Version) before the first item
// is read.

const (
	// maxStreamLine bounds one NDJSON line; a single EstimateItem is a
	// few hundred bytes, so 64 KiB is generous without letting one line
	// buffer arbitrarily.
	maxStreamLine = 64 << 10
	// streamFlushEvery flushes the response writer after this many
	// items so long streams deliver results incrementally.
	streamFlushEvery = 512
)

// streamLine is one NDJSON response line: exactly one of CPM, Error, or
// Done is present.
type streamLine struct {
	CPM          *float64  `json:"cpm,omitempty"`
	Error        *apiError `json:"error,omitempty"`
	Done         bool      `json:"done,omitempty"`
	Items        int       `json:"items,omitempty"`
	ModelVersion int       `json:"model_version,omitempty"`
}

func (s *Server) handleEstimateStreamV2(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeV2Error(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return
	}
	sess, err := s.svc.OpenEstimateSession(r.Context())
	if err != nil {
		writeV2ServiceError(w, err)
		return
	}
	// The stream is full-duplex: response lines flow while the request
	// body is still arriving. Without this, the HTTP/1 server closes the
	// unread body at the first response flush and truncates the stream
	// mid-line.
	_ = http.NewResponseController(w).EnableFullDuplex()
	snap := sess.Snapshot()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("ETag", snap.ETag)
	w.Header().Set("X-PME-Model-Version", strconv.Itoa(snap.Version))
	w.WriteHeader(http.StatusOK)

	bw := bufio.NewWriterSize(w, 32<<10)
	// After the 200 is on the wire, failures must travel in-band as an
	// {"error":...} line — the client treats one as fatal for the stream.
	fail := func(code, msg string) {
		_ = json.NewEncoder(bw).Encode(streamLine{Error: &apiError{Code: code, Message: msg}})
		_ = bw.Flush()
	}

	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 4096), maxStreamLine)
	var (
		// Parsed items are estimated core.EstimateChunk at a time: a full
		// chunk matches the session walk's encode-matrix size, and when
		// the service runs a cross-request batcher each chunk is one
		// submission — a lone fat stream still flushes full batches
		// immediately (size trigger) while only its sub-chunk tail can
		// wait out the batch window.
		chunk = make([]pme.EstimateItem, 0, core.EstimateChunk)
		cpms  = make([]float64, core.EstimateChunk)
		out   []byte // reused {"cpm":N}\n scratch
		items int
	)
	ctx := r.Context()
	// emit estimates the buffered chunk — one tree-major walk, one
	// batcher submission when the service batches — and writes its
	// result lines. Reports whether the stream should continue.
	emit := func() bool {
		if len(chunk) == 0 {
			return true
		}
		if err := sess.EstimateChunk(ctx, cpms[:len(chunk)], chunk); err != nil {
			fail("cancelled", "request context cancelled mid-stream")
			return false
		}
		for _, cpm := range cpms[:len(chunk)] {
			out = append(out[:0], `{"cpm":`...)
			out = strconv.AppendFloat(out, cpm, 'g', -1, 64)
			out = append(out, '}', '\n')
			if _, err := bw.Write(out); err != nil {
				return false // client went away
			}
			items++
			if items%streamFlushEvery == 0 {
				if err := ctx.Err(); err != nil {
					fail("cancelled", "request context cancelled mid-stream")
					return false
				}
				if err := bw.Flush(); err != nil {
					return false
				}
				if f, ok := w.(http.Flusher); ok {
					f.Flush()
				}
			}
		}
		chunk = chunk[:0]
		return true
	}
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var it pme.EstimateItem
		if err := json.Unmarshal(line, &it); err != nil {
			fail("bad_line", fmt.Sprintf("item %d is not a valid JSON object", items+len(chunk)))
			return
		}
		chunk = append(chunk, it)
		if len(chunk) == core.EstimateChunk && !emit() {
			return
		}
	}
	if err := sc.Err(); err != nil {
		code := "bad_stream"
		if errors.Is(err, bufio.ErrTooLong) {
			code = "line_too_long"
		}
		fail(code, err.Error())
		return
	}
	if !emit() {
		return
	}
	_ = json.NewEncoder(bw).Encode(streamLine{Done: true, Items: items, ModelVersion: snap.Version})
	_ = bw.Flush()
}

// --- streaming client ---

// StreamEstimateSummary reports what one streaming estimate call
// processed and which model version served it.
type StreamEstimateSummary struct {
	ModelVersion int
	ETag         string
	Items        int
}

// EstimateStreamV2 streams items to POST /v2/estimate/stream as NDJSON
// and invokes sink with each estimate, in order, as results arrive —
// neither side ever materializes the whole batch. next returns the next
// item and false when the stream ends; a sink error aborts the call.
// The whole stream is served by one model snapshot (see Summary).
func (c *Client) EstimateStreamV2(ctx context.Context, next func() (EstimateItem, bool), sink func(i int, cpm float64) error) (StreamEstimateSummary, error) {
	var sum StreamEstimateSummary
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.BaseURL+"/v2/estimate/stream", pr)
	if err != nil {
		pw.Close()
		return sum, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")

	// Feed the request body as results stream back on the response side;
	// closing the pipe with an error aborts the upload if encoding fails.
	go func() {
		bw := bufio.NewWriterSize(pw, 16<<10)
		enc := json.NewEncoder(bw) // Encode appends the NDJSON newline
		for {
			it, ok := next()
			if !ok {
				break
			}
			if err := enc.Encode(it); err != nil {
				pw.CloseWithError(err)
				return
			}
		}
		if err := bw.Flush(); err != nil {
			pw.CloseWithError(err)
			return
		}
		pw.Close()
	}()

	resp, err := c.HTTP.Do(req)
	if err != nil {
		return sum, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sum, decodeV2Error(resp)
	}
	sum.ETag = resp.Header.Get("ETag")
	sum.ModelVersion, _ = strconv.Atoi(resp.Header.Get("X-PME-Model-Version"))

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), maxStreamLine)
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var line streamLine
		if err := json.Unmarshal(raw, &line); err != nil {
			return sum, fmt.Errorf("pmeserver: malformed stream line: %w", err)
		}
		switch {
		case line.Error != nil:
			return sum, fmt.Errorf("pmeserver: %s (%s)", line.Error.Message, line.Error.Code)
		case line.Done:
			sum.Items = line.Items
			if line.ModelVersion != 0 {
				sum.ModelVersion = line.ModelVersion
			}
			return sum, nil
		case line.CPM != nil:
			if sink != nil {
				if err := sink(sum.Items, *line.CPM); err != nil {
					return sum, err
				}
			}
			sum.Items++
		}
	}
	if err := sc.Err(); err != nil {
		return sum, err
	}
	return sum, errors.New("pmeserver: estimate stream truncated before its done trailer")
}

// SliceIter adapts an in-memory item slice onto the streaming client's
// pull iterator.
func SliceIter(items []EstimateItem) func() (EstimateItem, bool) {
	i := 0
	return func() (EstimateItem, bool) {
		if i >= len(items) {
			return EstimateItem{}, false
		}
		it := items[i]
		i++
		return it, true
	}
}

// EstimateStreamSliceV2 is EstimateStreamV2 over an in-memory slice,
// returning the estimates in item order — the drop-in convenience for
// callers that already hold the batch.
func (c *Client) EstimateStreamSliceV2(ctx context.Context, items []EstimateItem) ([]float64, StreamEstimateSummary, error) {
	out := make([]float64, 0, len(items))
	sum, err := c.EstimateStreamV2(ctx, SliceIter(items),
		func(_ int, cpm float64) error {
			out = append(out, cpm)
			return nil
		})
	return out, sum, err
}
