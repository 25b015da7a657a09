package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"zombie/internal/otrace"
)

// HTTPTransport talks JSON to the dist worker endpoints NewHandler serves
// (zombie-serve mounts them under /dist/): any zombie-serve process with
// the corpus registered is a worker. Per-run deadlines and
// cancellation ride on the request context, exactly like the rest of the
// serving layer; retry and backoff live in the coordinator, transport-
// independently, so both transports fail through the same code path.
type HTTPTransport struct {
	clients   []Client
	client    *http.Client
	closeOnce sync.Once
}

// NewHTTPTransport returns a transport over the given worker base URLs
// (scheme + host[:port], e.g. "http://127.0.0.1:8821"), one shard per
// address in order.
func NewHTTPTransport(addrs []string) *HTTPTransport {
	// Its own pool, not http.DefaultTransport's, so Close closes nobody
	// else's connections; a worker has at most one speculative and one
	// demand call in flight, hence two idle connections each.
	pool := http.DefaultTransport.(*http.Transport).Clone()
	pool.MaxIdleConnsPerHost = 2
	pool.MaxIdleConns = 2 * len(addrs)
	t := &HTTPTransport{client: &http.Client{Transport: pool}}
	for _, addr := range addrs {
		t.clients = append(t.clients, &httpClient{
			base: strings.TrimRight(addr, "/"),
			hc:   t.client,
		})
	}
	return t
}

func (t *HTTPTransport) Name() string      { return "http" }
func (t *HTTPTransport) Clients() []Client { return t.clients }

// Close releases the transport's idle connections.
func (t *HTTPTransport) Close() error {
	t.closeOnce.Do(func() { t.client.CloseIdleConnections() })
	return nil
}

// httpClient is one worker's JSON-over-HTTP connection.
type httpClient struct {
	base string
	hc   *http.Client
}

// maxResponseBytes bounds a worker response read. Holdout responses carry
// one encoded example per owned holdout input and dominate; 256 MiB is
// orders of magnitude above any real corpus slice while still refusing to
// buffer an endless stream from a confused endpoint.
const maxResponseBytes = 256 << 20

// errorBody is what a worker endpoint answers a failed request with.
type errorBody struct {
	Error string `json:"error"`
}

// post sends req as JSON and decodes the 200 response, codec-encoded
// results included. A non-200 with the handler's errorBody surfaces as an
// error with exactly that message — worker-produced errors must cross the
// wire verbatim for the transport-identity contract.
func post[Resp any](ctx context.Context, c *httpClient, path string, req traceCarrier) (Resp, error) {
	var none, resp Resp
	body, err := json.Marshal(req)
	if err != nil {
		return none, fmt.Errorf("dist: marshal %s request: %w", path, err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return none, fmt.Errorf("dist: build %s request: %w", path, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	// Mirror the propagated trace context into the standard W3C header so
	// HTTP-level middleware sees the same value the wire field carries.
	if tp := *req.traceparent(); tp != "" {
		hreq.Header.Set(otrace.Header, tp)
	}
	hres, err := c.hc.Do(hreq)
	if err != nil {
		return none, fmt.Errorf("dist: %s %s: %w", c.base, path, err)
	}
	defer hres.Body.Close()
	data, err := io.ReadAll(io.LimitReader(hres.Body, maxResponseBytes))
	if err != nil {
		return none, fmt.Errorf("dist: read %s response: %w", path, err)
	}
	if hres.StatusCode != http.StatusOK {
		var e errorBody
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return none, errors.New(e.Error)
		}
		return none, fmt.Errorf("dist: %s %s: status %d", c.base, path, hres.StatusCode)
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return none, fmt.Errorf("dist: decode %s response: %w", path, err)
	}
	if dec, ok := any(&resp).(interface{ DecodeResults() error }); ok {
		if err := dec.DecodeResults(); err != nil {
			return none, err
		}
	}
	return resp, nil
}

func (c *httpClient) Init(ctx context.Context, req InitRequest) (InitResponse, error) {
	return post[InitResponse](ctx, c, "/dist/init", &req)
}

func (c *httpClient) Holdout(ctx context.Context, req HoldoutRequest) (HoldoutResponse, error) {
	return post[HoldoutResponse](ctx, c, "/dist/holdout", &req)
}

func (c *httpClient) StepBatch(ctx context.Context, req StepBatchRequest) (StepBatchResponse, error) {
	return post[StepBatchResponse](ctx, c, "/dist/step-batch", &req)
}

func (c *httpClient) Finish(ctx context.Context, req FinishRequest) (FinishResponse, error) {
	return post[FinishResponse](ctx, c, "/dist/finish", &req)
}

// maxRequestBytes bounds a worker request body: the largest is a
// StepBatchRequest, two ints per batched input.
const maxRequestBytes = 1 << 20

// NewHandler returns the HTTP side of w: the POST /dist/{init,holdout,
// step-batch,finish} endpoints httpClient speaks to, which make any
// process that mounts it under /dist/ a distributed-run worker over its
// own corpora, extraction cache and telemetry. A request that does not
// parse (unknown field, body over maxRequestBytes) answers 400, a worker
// error 500, both as an errorBody the client surfaces verbatim — which is
// what keeps failures byte-identical to the in-process local transport.
func NewHandler(w *Worker) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /dist/init", endpoint(w.Init))
	mux.Handle("POST /dist/holdout", endpoint(w.Holdout))
	mux.Handle("POST /dist/step-batch", endpoint(w.StepBatch))
	mux.Handle("POST /dist/finish", endpoint(w.Finish))
	return mux
}

// endpoint adapts one Worker method to HTTP. Trace context arrives twice
// on a traced coordinator's requests, as the wire field and mirrored in
// the W3C header; the field wins, and the header fallback keeps
// propagation working for coordinators (or middleware) that only speak
// the header.
func endpoint[Req, Resp any, P interface {
	*Req
	traceCarrier
}](call func(Req) (Resp, error)) http.HandlerFunc {
	return func(rw http.ResponseWriter, r *http.Request) {
		var req Req
		dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxRequestBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeJSON(rw, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
			return
		}
		if tp := P(&req).traceparent(); *tp == "" {
			*tp = r.Header.Get(otrace.Header)
		}
		resp, err := call(req)
		if enc, ok := any(&resp).(interface{ EncodeResults() error }); ok && err == nil {
			err = enc.EncodeResults()
		}
		if err != nil {
			writeJSON(rw, http.StatusInternalServerError, errorBody{Error: err.Error()})
			return
		}
		writeJSON(rw, http.StatusOK, resp)
	}
}

func writeJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	json.NewEncoder(rw).Encode(v) //nolint:errcheck // client gone; nothing to do
}
