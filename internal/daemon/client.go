package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client is a thin typed client for the dtbd HTTP API. It speaks to a
// TCP address ("host:port" or "http://host:port") or, with a "unix:"
// prefix, to a unix-domain socket path.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for addr. Accepted forms:
//
//	"127.0.0.1:7341"          TCP
//	"http://127.0.0.1:7341"   TCP
//	"unix:/run/dtbd.sock"     unix-domain socket
func NewClient(addr string) *Client {
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		tr := &http.Transport{
			DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, "unix", path)
			},
		}
		// The URL host is vestigial over a unix socket; "dtbd" keeps
		// Host headers and error messages readable.
		return &Client{base: "http://dtbd", hc: &http.Client{Transport: tr}}
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{base: strings.TrimRight(addr, "/"), hc: &http.Client{}}
}

// OverloadedError is the typed form of a 429 admission rejection.
type OverloadedError struct {
	RetryAfter time.Duration
	Message    string
}

func (e *OverloadedError) Error() string { return e.Message }

// UnknownTraceError is the typed form of a 404 for an unuploaded
// trace digest; callers upload and retry (dtbd eval does).
type UnknownTraceError struct {
	Digest  string
	Message string
}

func (e *UnknownTraceError) Error() string { return e.Message }

// StatusError is any other non-2xx response.
type StatusError struct {
	Status  int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("daemon: HTTP %d: %s", e.Status, e.Message)
}

// Eval runs one evaluation on the daemon.
func (c *Client) Eval(ctx context.Context, req *EvalRequest) (*EvalResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("encoding request: %w", err)
	}
	var resp EvalResponse
	if err := c.do(ctx, http.MethodPost, "/v1/eval", "application/json", bytes.NewReader(body), &resp, req.TraceDigest); err != nil {
		return nil, err
	}
	return &resp, nil
}

// UploadTrace streams a binary trace to the daemon and returns the
// daemon's digest and event count for it. A trace the simulator would
// reject fails with a *StatusError of status 422 carrying its error.
func (c *Client) UploadTrace(ctx context.Context, r io.Reader) (*TraceInfo, error) {
	var info TraceInfo
	if err := c.do(ctx, http.MethodPost, "/v1/traces", "application/octet-stream", r, &info, ""); err != nil {
		return nil, err
	}
	return &info, nil
}

// Metrics fetches the serving snapshot.
func (c *Client) Metrics(ctx context.Context) (*MetricsSnapshot, error) {
	var snap MetricsSnapshot
	if err := c.do(ctx, http.MethodGet, "/v1/metrics", "", nil, &snap, ""); err != nil {
		return nil, err
	}
	return &snap, nil
}

// Health probes /v1/healthz.
func (c *Client) Health(ctx context.Context) error {
	var ok struct {
		OK bool `json:"ok"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/healthz", "", nil, &ok, ""); err != nil {
		return err
	}
	if !ok.OK {
		return fmt.Errorf("daemon: health check returned ok=false")
	}
	return nil
}

// do issues one request and decodes the JSON response into out,
// translating error statuses into the typed errors above. digest
// contextualizes 404s from /v1/eval.
func (c *Client) do(ctx context.Context, method, path, contentType string, body io.Reader, out any, digest string) error {
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
	//dtbvet:ignore errsink -- response body close: the decode below already surfaces any transport truncation
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c.statusError(resp, digest)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	return nil
}

func (c *Client) statusError(resp *http.Response, digest string) error {
	msg := "(unreadable error body)"
	var eb errorBody
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb); err == nil && eb.Error != "" {
		msg = eb.Error
	}
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		retry := time.Second
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			retry = time.Duration(secs) * time.Second
		}
		return &OverloadedError{RetryAfter: retry, Message: msg}
	case http.StatusNotFound:
		if digest != "" {
			return &UnknownTraceError{Digest: digest, Message: msg}
		}
	}
	return &StatusError{Status: resp.StatusCode, Message: msg}
}
