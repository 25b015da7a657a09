package dist

import "context"

// Client is the coordinator's connection to one worker. Implementations
// must return worker-produced errors with the worker's message intact:
// the coordinator's retry wrapper folds the final message into quarantine
// reasons, and the transport-identity contract requires a deterministic
// worker failure (an injected dist.step fault) to read identically over
// any transport.
type Client interface {
	Init(ctx context.Context, req InitRequest) (InitResponse, error)
	Holdout(ctx context.Context, req HoldoutRequest) (HoldoutResponse, error)
	// StepBatch executes a batch of steps — one arm pull's misses, or a
	// read-ahead window's share — in one round trip. Per-item
	// failures come back inside the response (StepBatchItem.Err); an error
	// return means the whole call failed (transport loss, unknown run).
	StepBatch(ctx context.Context, req StepBatchRequest) (StepBatchResponse, error)
	Finish(ctx context.Context, req FinishRequest) (FinishResponse, error)
}

// Transport provides one Client per shard — Clients()[i] owns shard i.
type Transport interface {
	// Name labels the transport in summaries ("local", "http").
	Name() string
	// Clients returns the per-shard clients, index == shard.
	Clients() []Client
	// Close releases transport resources (in-process worker goroutines,
	// idle connections). Safe to call more than once.
	Close() error
}
