package dist

import (
	"context"
	"sync"

	"zombie/internal/corpus"
	"zombie/internal/featcache"
	"zombie/internal/obs"
)

// LocalTransport runs N workers in-process over one store: the
// single-binary sharding mode behind `zombie -shards N`, and the
// reference implementation the http transport is tested against. Each
// worker is served by its own goroutine fed through a channel, so calls
// to one worker serialize exactly like a remote worker's request loop
// while different workers proceed concurrently — the same concurrency
// shape as real deployment, minus the sockets.
type LocalTransport struct {
	clients   []Client
	closeOnce sync.Once
}

// NewLocalTransport starts shards in-process workers over store. cache is
// shared by every worker (the extraction cache is content-addressed and
// concurrency-safe, and cache state cannot affect results); reg receives
// the workers' metrics. Both may be nil.
func NewLocalTransport(store corpus.Store, shards int, cache *featcache.Cache, reg *obs.Registry) *LocalTransport {
	resolve := func(string) (corpus.Store, error) { return store, nil }
	t := &LocalTransport{}
	for i := 0; i < shards; i++ {
		c := &localClient{w: NewWorker(resolve, cache, reg), calls: make(chan func())}
		go func() {
			for fn := range c.calls {
				fn()
			}
		}()
		t.clients = append(t.clients, c)
	}
	return t
}

func (t *LocalTransport) Name() string      { return "local" }
func (t *LocalTransport) Clients() []Client { return t.clients }

// Close stops the worker goroutines. Calls in flight complete first.
func (t *LocalTransport) Close() error {
	t.closeOnce.Do(func() {
		for _, c := range t.clients {
			close(c.(*localClient).calls)
		}
	})
	return nil
}

// localClient funnels calls onto its worker's goroutine.
type localClient struct {
	w     *Worker
	calls chan func()
}

// do runs fn on the worker goroutine and waits for it, honoring ctx while
// queued (a call already executing runs to completion, like a request a
// remote server has already accepted).
func (c *localClient) do(ctx context.Context, fn func()) error {
	done := make(chan struct{})
	select {
	case c.calls <- func() { fn(); close(done) }:
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// localCall runs one Worker method on c's worker goroutine.
func localCall[Req, Resp any](ctx context.Context, c *localClient, fn func(Req) (Resp, error), req Req) (Resp, error) {
	var resp Resp
	var err error
	if derr := c.do(ctx, func() { resp, err = fn(req) }); derr != nil {
		var none Resp
		return none, derr
	}
	return resp, err
}

func (c *localClient) Init(ctx context.Context, req InitRequest) (InitResponse, error) {
	return localCall(ctx, c, c.w.Init, req)
}

func (c *localClient) Holdout(ctx context.Context, req HoldoutRequest) (HoldoutResponse, error) {
	return localCall(ctx, c, c.w.Holdout, req)
}

func (c *localClient) StepBatch(ctx context.Context, req StepBatchRequest) (StepBatchResponse, error) {
	return localCall(ctx, c, c.w.StepBatch, req)
}

func (c *localClient) Finish(ctx context.Context, req FinishRequest) (FinishResponse, error) {
	return localCall(ctx, c, c.w.Finish, req)
}
