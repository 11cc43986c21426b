package pmeserver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"yourandvalue/internal/core"
	"yourandvalue/internal/pme"
)

// The /v2 surface serves real client fleets (§3.3's extension deployment):
// conditional model fetch so extensions poll cheaply, batch and streaming
// estimation endpoints so thin clients need not run the forest locally,
// explicit accepted/dropped accounting on contributions, and structured
// JSON errors throughout. /v1 routes are unchanged alongside it. Every
// handler body is transport only — decode, delegate to the pme.Service,
// encode.

// apiError is the structured error body every /v2 endpoint returns.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeV2Error(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(struct {
		Error apiError `json:"error"`
	}{apiError{Code: code, Message: msg}})
}

func writeV2JSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// maxBodyBytes caps the /v2/estimate and /v2/contribute request bodies.
const maxBodyBytes = 1 << 20

// writeBadBody answers a request body that could not be read or
// decoded: 413 body_too_large past maxBodyBytes, else 400 bad_payload
// with msg.
func writeBadBody(w http.ResponseWriter, err error, msg string) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeV2Error(w, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
		return
	}
	writeV2Error(w, http.StatusBadRequest, "bad_payload", msg)
}

// writeV2ServiceError maps a pme.Service error onto the structured v2
// wire form.
func writeV2ServiceError(w http.ResponseWriter, err error) {
	var tooLarge *pme.BatchTooLargeError
	switch {
	case errors.Is(err, pme.ErrNoModel):
		writeV2Error(w, http.StatusNotFound, "no_model", "no model available yet")
	case errors.Is(err, pme.ErrEmptyBatch):
		writeV2Error(w, http.StatusBadRequest, "empty_batch", "no items to estimate")
	case errors.As(err, &tooLarge):
		writeV2Error(w, http.StatusRequestEntityTooLarge, "batch_too_large",
			fmt.Sprintf("at most %d items per request", tooLarge.Max))
	default:
		writeV2Error(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

// EstimateRequest is the POST /v2/estimate body.
type EstimateRequest struct {
	Items []EstimateItem `json:"items"`
}

// EstimateResponse carries one CPM estimate per request item, in order.
type EstimateResponse struct {
	ModelVersion int       `json:"model_version"`
	EstimatesCPM []float64 `json:"estimates_cpm"`
}

// ContributeResponse is the POST /v2/contribute body.
type ContributeResponse struct {
	Accepted int `json:"accepted"`
	Dropped  int `json:"dropped"`
	Invalid  int `json:"invalid"`
}

// VersionResponse is the GET /v2/model/version body.
type VersionResponse struct {
	Version int    `json:"version"`
	ETag    string `json:"etag"`
}

func (s *Server) handleModelV2(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeV2Error(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	snap, err := s.svc.ModelSnapshot(r.Context())
	if err != nil {
		writeV2ServiceError(w, err)
		return
	}
	w.Header().Set("ETag", snap.ETag)
	// Extensions poll for new versions (§3.3); an unchanged ETag answers
	// the poll without shipping the multi-hundred-KiB model body.
	if r.Header.Get("If-None-Match") == snap.ETag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(snap.Blob)
}

// handleModelFlatV2 serves the compact flat encoding of the serving
// model — the same version /v2/model distributes as JSON, under the
// same ETag, in the 16-byte-per-node binary form the flat inference
// engine evaluates directly. Clients that fetch it never materialize
// pointer nodes.
func (s *Server) handleModelFlatV2(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeV2Error(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	snap, err := s.svc.ModelSnapshot(r.Context())
	if err != nil {
		writeV2ServiceError(w, err)
		return
	}
	if len(snap.FlatBlob) == 0 {
		writeV2Error(w, http.StatusNotFound, "no_flat_model", "serving model has no flat representation")
		return
	}
	w.Header().Set("ETag", snap.ETag)
	if r.Header.Get("If-None-Match") == snap.ETag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(snap.FlatBlob)
}

func (s *Server) handleVersionV2(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeV2Error(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	snap, err := s.svc.ModelSnapshot(r.Context())
	if err != nil {
		writeV2ServiceError(w, err)
		return
	}
	writeV2JSON(w, http.StatusOK, VersionResponse{Version: snap.Version, ETag: snap.ETag})
}

func (s *Server) handleContributeV2(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeV2Error(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return
	}
	var batch []Contribution
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(&batch); err != nil {
		writeBadBody(w, err, "contribution batch is not valid JSON")
		return
	}
	res, err := s.svc.Contribute(r.Context(), batch)
	if err != nil {
		writeV2ServiceError(w, err)
		return
	}
	status := http.StatusOK
	if res.PoolFull() {
		// Pool full: nothing stored, tell the client to retry later.
		w.Header().Set("Retry-After", "3600")
		status = http.StatusInsufficientStorage
	}
	writeV2JSON(w, status, ContributeResponse{
		Accepted: res.Accepted, Dropped: res.Dropped, Invalid: res.Invalid,
	})
}

func (s *Server) handleEstimateV2(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeV2Error(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return
	}
	// One pooled buffer holds the body and then the reply: the decoded
	// items copy their strings out of it (see wireScanner).
	bp := wireBufs.Get().(*[]byte)
	defer putWireBuf(bp)
	body := bytes.NewBuffer((*bp)[:0])
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	*bp = body.Bytes()
	if err != nil {
		writeBadBody(w, err, "estimate request is not valid JSON")
		return
	}
	req, err := decodeEstimateRequest(*bp)
	if err != nil {
		writeV2Error(w, http.StatusBadRequest, "bad_payload", "estimate request is not valid JSON")
		return
	}
	res, err := s.svc.EstimateBatch(r.Context(), req.Items)
	if err != nil {
		writeV2ServiceError(w, err)
		return
	}
	w.Header().Set("ETag", res.ETag)
	var ok bool
	if *bp, ok = appendEstimateReply((*bp)[:0], res.Version, res.EstimatesCPM); !ok {
		// A non-finite estimate: keep encoding/json's answer to it.
		writeV2JSON(w, http.StatusOK, EstimateResponse{
			ModelVersion: res.Version,
			EstimatesCPM: res.EstimatesCPM,
		})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(*bp)
}

// --- v2 client methods ---

// ErrNotModified reports that the server's model still matches the ETag
// the client presented — the cheap outcome of a §3.3 version poll.
var ErrNotModified = errors.New("pmeserver: model not modified")

// ErrPoolFull reports that the server accepted nothing because its
// contribution pool is at capacity.
var ErrPoolFull = errors.New("pmeserver: contribution pool full")

// decodeV2Error maps a structured error body onto a Go error.
func decodeV2Error(resp *http.Response) error {
	var body struct {
		Error apiError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error.Code == "" {
		return errors.New("pmeserver: status " + resp.Status)
	}
	return fmt.Errorf("pmeserver: %s (%s)", body.Error.Message, body.Error.Code)
}

// FetchModelV2 downloads the current model unless it still matches etag
// (pass "" on first fetch). On a 304 it returns (nil, etag, ErrNotModified);
// otherwise the decoded model and its new ETag for the next poll.
func (c *Client) FetchModelV2(ctx context.Context, etag string) (*core.Model, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v2/model", nil)
	if err != nil {
		return nil, etag, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, etag, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		return nil, etag, ErrNotModified
	case http.StatusOK:
		buf, err := readAll(resp.Body, 32<<20)
		if err != nil {
			return nil, etag, err
		}
		m, err := core.DecodeModel(buf)
		if err != nil {
			return nil, etag, err
		}
		return m, resp.Header.Get("ETag"), nil
	default:
		return nil, etag, decodeV2Error(resp)
	}
}

// FetchModelFlatV2 downloads the current model in compact flat form
// unless it still matches etag (pass "" on first fetch). On a 304 it
// returns (nil, etag, ErrNotModified). The decoded model carries the
// flat inference engines only; it estimates bit-identically to the
// JSON-decoded model while the blob is a fraction of the size.
func (c *Client) FetchModelFlatV2(ctx context.Context, etag string) (*core.Model, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v2/model/flat", nil)
	if err != nil {
		return nil, etag, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, etag, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		return nil, etag, ErrNotModified
	case http.StatusOK:
		buf, err := readAll(resp.Body, 32<<20)
		if err != nil {
			return nil, etag, err
		}
		m, err := core.DecodeCompactModel(buf)
		if err != nil {
			return nil, etag, err
		}
		return m, resp.Header.Get("ETag"), nil
	default:
		return nil, etag, decodeV2Error(resp)
	}
}

// VersionV2 polls the advertised model version and ETag without the body.
func (c *Client) VersionV2(ctx context.Context) (VersionResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v2/model/version", nil)
	if err != nil {
		return VersionResponse{}, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return VersionResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return VersionResponse{}, decodeV2Error(resp)
	}
	var v VersionResponse
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return VersionResponse{}, err
	}
	return v, nil
}

// ContributeV2 uploads anonymous observations, reporting both accepted
// and dropped counts. A full pool returns counts with ErrPoolFull.
func (c *Client) ContributeV2(ctx context.Context, batch []Contribution) (ContributeResponse, error) {
	blob, err := json.Marshal(batch)
	if err != nil {
		return ContributeResponse{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.BaseURL+"/v2/contribute", bytesReader(blob))
	if err != nil {
		return ContributeResponse{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return ContributeResponse{}, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusInsufficientStorage:
		var out ContributeResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return ContributeResponse{}, err
		}
		if resp.StatusCode == http.StatusInsufficientStorage {
			return out, ErrPoolFull
		}
		return out, nil
	default:
		return ContributeResponse{}, decodeV2Error(resp)
	}
}

// EstimateV2 asks the server to estimate a batch of encrypted prices —
// the thin-client path that avoids shipping the forest to the device.
func (c *Client) EstimateV2(ctx context.Context, items []EstimateItem) (EstimateResponse, error) {
	blob, err := json.Marshal(EstimateRequest{Items: items})
	if err != nil {
		return EstimateResponse{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.BaseURL+"/v2/estimate", bytesReader(blob))
	if err != nil {
		return EstimateResponse{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return EstimateResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return EstimateResponse{}, decodeV2Error(resp)
	}
	var out EstimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return EstimateResponse{}, err
	}
	return out, nil
}
