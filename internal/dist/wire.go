package dist

import (
	"encoding/base64"
	"fmt"

	"zombie/internal/featurepipe"
	"zombie/internal/otrace"
)

// Wire types shared by every transport. The local transport passes them
// by value with the native Result fields populated; the http transport
// marshals them as JSON, carrying extraction results as base64 of the
// versioned featurepipe.ResultCodec binary format — the same codec the
// extraction cache trusts on disk. The codec round-trips float bits
// exactly, so a decoded result is byte-identical to the native one; the
// transport-identity tests assert exactly that.
//
// Every request carries an optional Traceparent (W3C trace-context
// format); the http transport mirrors it into the `traceparent` HTTP
// header. Workers that find a parseable value open child spans under the
// propagated parent and return them in the response's Spans field; the
// coordinator stitches those into its own buffer, producing one run-wide
// span tree across processes. Tracing is strictly observational: a worker
// given no (or a malformed) traceparent executes identically and returns
// no spans.

// InitRequest asks a worker to set up one run's shard view: rebuild the
// task from (corpus, task, feature version, seed) — the same triple every
// front end uses, so all workers and the coordinator hold byte-identical
// tasks — compute the shard map, and wrap its executor with the run's
// fault injector, shipped as its String() rendering and Seed() (a
// rendering Parse reads back to the same decisions; see FuzzFaultSpec).
type InitRequest struct {
	RunID          string `json:"run_id"`
	Corpus         string `json:"corpus"`
	Task           string `json:"task"`
	FeatureVersion int    `json:"feature_version"`
	Seed           int64  `json:"seed"`
	Shards         int    `json:"shards"`
	Shard          int    `json:"shard"`
	FaultSpec      string `json:"faults,omitempty"`
	FaultSeed      int64  `json:"fault_seed,omitempty"`
	Traceparent    string `json:"traceparent,omitempty"`
}

// InitResponse reports the worker's view of the shard. StoreLen is the
// worker's corpus size; the coordinator rejects the run when it disagrees
// with its own (the two processes are not looking at the same artifact,
// so the shard maps would silently diverge).
type InitResponse struct {
	StoreLen     int `json:"store_len"`
	OwnedInputs  int `json:"owned_inputs"`
	OwnedHoldout int `json:"owned_holdout"`
}

// HoldoutRequest asks a worker to extract the holdout inputs its shard
// owns.
type HoldoutRequest struct {
	RunID       string `json:"run_id"`
	Traceparent string `json:"traceparent,omitempty"`
}

// HoldoutItem is one owned holdout input's extraction: either a result
// (possibly unproduced) or a skip reason, tagged with the global store
// index so the coordinator can verify merge alignment.
type HoldoutItem struct {
	Idx     int    `json:"idx"`
	InputID string `json:"input_id"`
	// Skip carries the tolerant build's skip reason; when non-empty the
	// result fields are meaningless.
	Skip string `json:"skip,omitempty"`
	// ResultB64 is the codec-encoded result on the wire; Result is the
	// native value in-process. EncodeResults/DecodeResults convert.
	ResultB64 string             `json:"result,omitempty"`
	Result    featurepipe.Result `json:"-"`
}

// HoldoutResponse lists the worker's owned holdout items in ascending
// global index order (the order Task.HoldoutIdx visits them is the
// coordinator's business; workers report in a canonical order and the
// coordinator merges).
type HoldoutResponse struct {
	Items []HoldoutItem `json:"items"`
	Spans []otrace.Span `json:"spans,omitempty"`
}

// StepResponse mirrors core.StepOutcome on the wire: one executed step
// of a StepBatchResponse.
type StepResponse struct {
	InputID      string `json:"input_id,omitempty"`
	ReadErr      string `json:"read_err,omitempty"`
	CostNanos    int64  `json:"cost_ns,omitempty"`
	ExtractErr   string `json:"extract_err,omitempty"`
	Panicked     bool   `json:"panicked,omitempty"`
	CacheHit     bool   `json:"cache_hit,omitempty"`
	ReadNanos    int64  `json:"read_ns,omitempty"`
	ExtractNanos int64  `json:"extract_ns,omitempty"`

	ResultB64 string             `json:"result,omitempty"`
	Result    featurepipe.Result `json:"-"`
}

// StepBatchRequest asks the owning worker to execute a batch of bandit
// steps in one call — the transport-level half of Config.BatchSize: the
// coordinator groups each engine batch by owning shard and sends one
// StepBatch per shard. Steps[j] is the engine loop's step counter for
// Idxs[j], for tracing and fault keying symmetry with the engine; it is
// optional — a speculative (read-ahead) request is sent before the loop
// has numbered its inputs and omits it — and when present must be as long
// as Idxs. No outcome depends on it.
type StepBatchRequest struct {
	RunID       string `json:"run_id"`
	Steps       []int  `json:"steps,omitempty"`
	Idxs        []int  `json:"idxs"`
	Traceparent string `json:"traceparent,omitempty"`
}

// StepBatchItem is one input's outcome inside a batch: either a
// StepResponse or a worker-produced error. Per-item failures (an injected
// dist.step fault, a misrouted input, a worker panic) ride in Err inside
// a successful batch response so one bad input cannot poison its
// batchmates; being pure functions of the request, they are never
// retried.
type StepBatchItem struct {
	Err string `json:"error,omitempty"`
	StepResponse
}

// StepBatchResponse lists the batch outcomes positionally: Items[j]
// belongs to request Idxs[j].
type StepBatchResponse struct {
	Items []StepBatchItem `json:"items"`
	Spans []otrace.Span   `json:"spans,omitempty"`
}

// FinishRequest releases a run's state on the worker and collects its
// execution-side tallies.
type FinishRequest struct {
	RunID       string `json:"run_id"`
	Traceparent string `json:"traceparent,omitempty"`
}

// FinishResponse reports one worker's run totals. Parts carries the
// shard's per-recipe-part extraction cost tallies (cached workers only);
// the coordinator turns them into per-shard "part" spans so the run's
// cost summary can attribute extraction time by part × shard.
type FinishResponse struct {
	Steps            int                    `json:"steps"`
	CacheHits        int64                  `json:"cache_hits"`
	CacheMisses      int64                  `json:"cache_misses"`
	CacheLookupNanos int64                  `json:"cache_lookup_ns"`
	Parts            []featurepipe.PartCost `json:"parts,omitempty"`
}

// traceCarrier lets both HTTP sides reach a request's propagated trace
// context without knowing the concrete request type: the client mirrors
// it into the standard header so any HTTP-aware middleware sees it too,
// and the handler falls back to that header when the field is empty.
type traceCarrier interface{ traceparent() *string }

func (r *InitRequest) traceparent() *string      { return &r.Traceparent }
func (r *HoldoutRequest) traceparent() *string   { return &r.Traceparent }
func (r *StepBatchRequest) traceparent() *string { return &r.Traceparent }
func (r *FinishRequest) traceparent() *string    { return &r.Traceparent }

var resultCodec featurepipe.ResultCodec

// EncodeResults fills every non-errored item's ResultB64 for the wire.
func (b *StepBatchResponse) EncodeResults() error {
	for i := range b.Items {
		it := &b.Items[i]
		if it.Err != "" {
			continue
		}
		enc, err := resultCodec.Encode(it.Result)
		if err != nil {
			return fmt.Errorf("dist: encode step result for batch item %d: %w", i, err)
		}
		it.ResultB64 = base64.StdEncoding.EncodeToString(enc)
	}
	return nil
}

// DecodeResults fills every non-errored item's native Result after
// unmarshaling.
func (b *StepBatchResponse) DecodeResults() error {
	for i := range b.Items {
		it := &b.Items[i]
		if it.Err != "" || it.ResultB64 == "" {
			continue
		}
		res, err := decodeResultB64(it.ResultB64)
		if err != nil {
			return fmt.Errorf("dist: decode step result for batch item %d: %w", i, err)
		}
		it.Result = res
	}
	return nil
}

// EncodeResults fills every item's ResultB64 for the wire.
func (h *HoldoutResponse) EncodeResults() error {
	for i := range h.Items {
		it := &h.Items[i]
		if it.Skip != "" {
			continue
		}
		b, err := resultCodec.Encode(it.Result)
		if err != nil {
			return fmt.Errorf("dist: encode holdout result for input %d: %w", it.Idx, err)
		}
		it.ResultB64 = base64.StdEncoding.EncodeToString(b)
	}
	return nil
}

// DecodeResults fills every item's native Result after unmarshaling.
func (h *HoldoutResponse) DecodeResults() error {
	for i := range h.Items {
		it := &h.Items[i]
		if it.Skip != "" || it.ResultB64 == "" {
			continue
		}
		res, err := decodeResultB64(it.ResultB64)
		if err != nil {
			return fmt.Errorf("dist: decode holdout result for input %d: %w", it.Idx, err)
		}
		it.Result = res
	}
	return nil
}

func decodeResultB64(s string) (featurepipe.Result, error) {
	b, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return featurepipe.Result{}, err
	}
	v, err := resultCodec.Decode(b)
	if err != nil {
		return featurepipe.Result{}, err
	}
	res, ok := v.(featurepipe.Result)
	if !ok {
		return featurepipe.Result{}, fmt.Errorf("codec returned %T", v)
	}
	return res, nil
}
