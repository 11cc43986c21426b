package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"yourandvalue/internal/obs"
	"yourandvalue/internal/obs/trace"
	"yourandvalue/internal/pmeserver"
)

// conns is the number of client connections (and client goroutines).
const conns = 2

// client is the load side: one HTTP transport capped at conns
// connections to one server. A traced client opens a span per request
// and injects it as traceparent.
type client struct {
	hc    *http.Client
	base  string
	spans *trace.Tracer // nil when untraced
}

func newClient(base string, spans *trace.Tracer) *client {
	var rt http.RoundTripper = &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	if spans != nil {
		rt = &trace.Transport{Base: rt}
	}
	return &client{hc: &http.Client{Transport: rt}, base: base, spans: spans}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// send issues one request under a client span. The caller closes the
// response body and ends the span.
func (c *client) send(ctx context.Context, method, path string, body []byte, etag string) (*http.Response, *trace.ActiveSpan, error) {
	span := c.spans.Root("client." + path)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(trace.ContextWith(ctx, span.Context()), method, c.base+path, rd)
	if err != nil {
		span.End()
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		span.End()
		return nil, nil, err
	}
	return resp, span, nil
}

// readReply reads the whole response body into buf and closes it.
func readReply(resp *http.Response, span *trace.ActiveSpan, buf *bytes.Buffer) error {
	defer span.End()
	defer resp.Body.Close()
	buf.Reset()
	_, err := buf.ReadFrom(resp.Body)
	return err
}

// estimate posts one pre-encoded /v2/estimate body and returns the model
// version and estimates of the reply.
func (c *client) estimate(ctx context.Context, body []byte, buf *bytes.Buffer) (int, []float64, error) {
	resp, span, err := c.send(ctx, http.MethodPost, "/v2/estimate", body, "")
	if err != nil {
		return 0, nil, err
	}
	if err := readReply(resp, span, buf); err != nil {
		return 0, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, nil, fmt.Errorf("/v2/estimate: status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	var out pmeserver.EstimateResponse
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		return 0, nil, fmt.Errorf("/v2/estimate: %w", err)
	}
	return out.ModelVersion, out.EstimatesCPM, nil
}

var cpmPrefix = []byte(`{"cpm":`)

// stream posts one pre-encoded NDJSON body to /v2/estimate/stream and
// parses exactly len(dst) estimate lines into dst. It returns the model
// version the server pinned for the stream.
func (c *client) stream(ctx context.Context, body []byte, dst []float64) (int, error) {
	resp, span, err := c.send(ctx, http.MethodPost, "/v2/estimate/stream", body, "")
	if err != nil {
		return 0, err
	}
	defer span.End()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return 0, fmt.Errorf("/v2/estimate/stream: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	version, err := strconv.Atoi(resp.Header.Get("X-PME-Model-Version"))
	if err != nil {
		return 0, fmt.Errorf("/v2/estimate/stream: model version header: %w", err)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), 64<<10)
	n := 0
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.HasPrefix(line, cpmPrefix) && line[len(line)-1] == '}' {
			v, err := strconv.ParseFloat(string(line[len(cpmPrefix):len(line)-1]), 64)
			if err != nil {
				return 0, fmt.Errorf("/v2/estimate/stream: line %d: %w", n, err)
			}
			if n == len(dst) {
				return 0, fmt.Errorf("/v2/estimate/stream: more than %d estimates", len(dst))
			}
			dst[n] = v
			n++
			continue
		}
		var tail struct {
			Done  bool            `json:"done"`
			Items int             `json:"items"`
			Error json.RawMessage `json:"error"`
		}
		if err := json.Unmarshal(line, &tail); err != nil || tail.Error != nil || !tail.Done {
			return 0, fmt.Errorf("/v2/estimate/stream: unexpected line %q", line)
		}
		if tail.Items != n || n != len(dst) {
			return 0, fmt.Errorf("/v2/estimate/stream: %d estimates, trailer says %d, sent %d items", n, tail.Items, len(dst))
		}
		return version, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/v2/estimate/stream: truncated after %d estimates", n)
}

// contribute posts one pre-encoded /v2/contribute body.
func (c *client) contribute(ctx context.Context, body []byte, buf *bytes.Buffer) (pmeserver.ContributeResponse, error) {
	var out pmeserver.ContributeResponse
	resp, span, err := c.send(ctx, http.MethodPost, "/v2/contribute", body, "")
	if err != nil {
		return out, err
	}
	if err := readReply(resp, span, buf); err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("/v2/contribute: status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		return out, fmt.Errorf("/v2/contribute: %w", err)
	}
	return out, nil
}

// poll is a conditional GET /v2/model. It returns the status, the ETag
// the server answered with and, on a 200, the body in buf.
func (c *client) poll(ctx context.Context, etag string, buf *bytes.Buffer) (int, string, error) {
	resp, span, err := c.send(ctx, http.MethodGet, "/v2/model", nil, etag)
	if err != nil {
		return 0, "", err
	}
	if err := readReply(resp, span, buf); err != nil {
		return 0, "", err
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusNotModified:
		return resp.StatusCode, resp.Header.Get("ETag"), nil
	}
	return 0, "", fmt.Errorf("/v2/model: status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
}

// scrape reads and parses the server's /metrics.
func (c *client) scrape(ctx context.Context) ([]obs.Family, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return obs.ParseText(resp.Body)
}
