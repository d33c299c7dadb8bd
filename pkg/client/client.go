// Package client is the typed Go client for the mcmcd daemon's v1 API
// (the pkg/api contract): job submission, status, cancellation, SSE
// progress streaming with reconnect-and-resume, chain diagnostics and
// metrics. The e2e harness and mcmcctl both drive the daemon through
// this package, so the client is exercised against a live server on
// every run.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/pkg/api"
)

// Client speaks the v1 API to one daemon. The zero value is not usable;
// construct with New.
type Client struct {
	base    string // normalized base URL, no trailing slash
	hc      *http.Client
	backoff time.Duration
	retries int
}

// Option customises a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client. The default
// has no global timeout — SSE streams are long-lived; bound unary
// calls with a request context instead.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetry configures SSE reconnection: up to retries consecutive
// failed attempts, backoff apart. Defaults: 5 attempts, 250ms.
func WithRetry(retries int, backoff time.Duration) Option {
	return func(c *Client) { c.retries, c.backoff = retries, backoff }
}

// New builds a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:8080").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: base URL: %w", err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q needs scheme and host", baseURL)
	}
	c := &Client{
		base:    strings.TrimRight(u.String(), "/"),
		hc:      &http.Client{},
		backoff: 250 * time.Millisecond,
		retries: 5,
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// BaseURL returns the normalized base URL the client talks to.
func (c *Client) BaseURL() string { return c.base }

// do issues one request and decodes a 2xx JSON response into out
// (strictly: unknown fields are errors, catching contract drift).
// Non-2xx responses become *api.ErrorEnvelope errors.
func (c *Client) do(ctx context.Context, method, path string, body io.Reader, contentType string, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeErr(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

// decodeErr turns a non-2xx response into the typed envelope error.
// Responses that are not valid envelopes (a proxy in the way, say)
// still produce an *api.ErrorEnvelope, with the body as the message.
func decodeErr(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var env api.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Code == "" {
		env = api.ErrorEnvelope{
			Code:    "unexpected_response",
			Message: strings.TrimSpace(string(body)),
		}
	}
	env.Status = resp.StatusCode
	return &env
}

// Version fetches the contract version and capability registries.
func (c *Client) Version(ctx context.Context) (*api.VersionInfo, error) {
	var v api.VersionInfo
	if err := c.do(ctx, http.MethodGet, api.Prefix+"/version", nil, "", &v); err != nil {
		return nil, err
	}
	return &v, nil
}

// Submit submits a synthetic-scene job.
func (c *Client) Submit(ctx context.Context, spec api.JobSpec) (*api.JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var st api.JobStatus
	if err := c.do(ctx, http.MethodPost, api.Prefix+"/jobs", bytes.NewReader(body), "application/json", &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// SubmitImage submits a raw PNG or PGM image with detection options as
// query parameters (the server sniffs the format from the bytes).
func (c *Client) SubmitImage(ctx context.Context, img []byte, opts api.OptionsSpec) (*api.JobStatus, error) {
	path := api.Prefix + "/jobs"
	if q := api.OptionsQuery(opts).Encode(); q != "" {
		path += "?" + q
	}
	var st api.JobStatus
	if err := c.do(ctx, http.MethodPost, path, bytes.NewReader(img), "application/octet-stream", &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (*api.JobStatus, error) {
	var st api.JobStatus
	if err := c.do(ctx, http.MethodGet, api.Prefix+"/jobs/"+url.PathEscape(id), nil, "", &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Jobs lists all jobs in submission order.
func (c *Client) Jobs(ctx context.Context) ([]api.JobStatus, error) {
	var out []api.JobStatus
	if err := c.do(ctx, http.MethodGet, api.Prefix+"/jobs", nil, "", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Nodes lists the worker registry of a distributed-mode coordinator.
// Standalone daemons answer a typed 404 (the endpoint exists only in
// coordinator role).
func (c *Client) Nodes(ctx context.Context) ([]api.NodeView, error) {
	var out []api.NodeView
	if err := c.do(ctx, http.MethodGet, api.Prefix+"/nodes", nil, "", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Cancel cancels a pending or running job and returns its status.
func (c *Client) Cancel(ctx context.Context, id string) (*api.JobStatus, error) {
	var st api.JobStatus
	if err := c.do(ctx, http.MethodDelete, api.Prefix+"/jobs/"+url.PathEscape(id), nil, "", &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Diag fetches one job's chain diagnostics (streaming R̂/ESS while it
// runs, result-level rates once done).
func (c *Client) Diag(ctx context.Context, id string) (*api.DiagView, error) {
	var d api.DiagView
	if err := c.do(ctx, http.MethodGet, api.Prefix+"/jobs/"+url.PathEscape(id)+"/diag", nil, "", &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// Health fetches the liveness report.
func (c *Client) Health(ctx context.Context) (*api.Health, error) {
	var h api.Health
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, "", &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// MetricsText fetches the raw Prometheus text exposition.
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", decodeErr(resp)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	return string(body), nil
}

// Metrics fetches and parses the daemon's metrics.
func (c *Client) Metrics(ctx context.Context) (*Metrics, error) {
	text, err := c.MetricsText(ctx)
	if err != nil {
		return nil, err
	}
	return ParseMetrics(text)
}
