package pmeserver

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"yourandvalue/internal/core"
)

// Client is the extension-side PME connection. Every method takes a
// context: the …Context methods speak the v1 routes, the …V2 family the
// ETag-aware v2 ones.
type Client struct {
	BaseURL string
	HTTP    *http.Client
}

// NewClient returns a Client with a sane timeout.
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL: baseURL,
		HTTP:    &http.Client{Timeout: 10 * time.Second},
	}
}

// FetchModelContext downloads and decodes the current model over the v1
// route, honoring ctx cancellation and deadlines.
func (c *Client) FetchModelContext(ctx context.Context) (*core.Model, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/model", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, errors.New("pmeserver: model fetch status " + resp.Status)
	}
	buf, err := readAll(resp.Body, 32<<20)
	if err != nil {
		return nil, err
	}
	return core.DecodeModel(buf)
}

// VersionContext fetches the advertised model version without the body,
// honoring ctx cancellation and deadlines.
func (c *Client) VersionContext(ctx context.Context) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/model/version", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, errors.New("pmeserver: version status " + resp.Status)
	}
	var v struct {
		Version int `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return 0, err
	}
	return v.Version, nil
}

// ContributeContext uploads anonymous observations over the v1 route,
// honoring ctx cancellation and deadlines. A full server pool returns
// the accepted count (zero) together with ErrPoolFull so callers can
// back off instead of treating the 507 as a transport failure.
func (c *Client) ContributeContext(ctx context.Context, batch []Contribution) (int, error) {
	blob, err := json.Marshal(batch)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.BaseURL+"/v1/contribute", bytesReader(blob))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusInsufficientStorage {
		return 0, errors.New("pmeserver: contribute status " + resp.Status)
	}
	var out struct {
		Accepted int `json:"accepted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	if resp.StatusCode == http.StatusInsufficientStorage {
		return out.Accepted, ErrPoolFull
	}
	return out.Accepted, nil
}
