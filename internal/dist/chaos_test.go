package dist

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"zombie/internal/core"
	"zombie/internal/fault"
	"zombie/internal/obs"
)

// deadWorkerSeed scans fault seeds for one where, under the given spec,
// worker w1 fails every step and w0 none — fault decisions are pure
// hashes of (seed, site, id), so the scan is deterministic and cheap.
func deadWorkerSeed(t *testing.T, spec string) int64 {
	t.Helper()
	for seed := int64(1); seed < 4000; seed++ {
		inj, err := fault.Parse(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		_, _, w0 := inj.Check(fault.SiteDistStep, "w0")
		kind, _, w1 := inj.Check(fault.SiteDistStep, "w1")
		if !w0 && w1 && kind == fault.KindError {
			return seed
		}
	}
	t.Fatal("no fault seed kills exactly w1 under " + spec)
	return 0
}

// TestDeadWorkerTripsFailureBudget kills one of two workers mid-run (an
// error rule at dist.step makes every step routed to w1 fail; the worker
// reports each failure in-band, so none is retried) and asserts the run
// degrades exactly like a single-process run over a half-broken corpus:
// StopFailed once the failure budget trips, with the partial merged curve
// intact — and that the local and http transports fail byte-identically.
func TestDeadWorkerTripsFailureBudget(t *testing.T) {
	const spec = "dist.step:err=0.5"
	const seed, maxInputs, shards = 11, 80, 2
	fseed := deadWorkerSeed(t, spec)
	store, task, groups := testSetup(t, 160, seed)
	eng, err := core.New(core.Config{Seed: seed, MaxInputs: maxInputs, MaxFailureFrac: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	dspec := Spec{
		RunID: "t-chaos", Task: "wiki", Seed: seed, Shards: shards,
		FaultSpec: spec, FaultSeed: fseed,
		Obs: reg,
	}

	local := NewLocalTransport(store, shards, nil, nil)
	defer local.Close()
	lres, err := Run(context.Background(), eng, local, dspec, task, groups)
	if err != nil {
		t.Fatalf("local faulted run should degrade, not error: %v", err)
	}
	if lres.Stop != core.StopFailed {
		t.Fatalf("Stop = %v, want StopFailed with a dead worker and budget 0.25", lres.Stop)
	}
	if len(lres.Curve) == 0 {
		t.Fatal("StopFailed run lost its partial curve")
	}
	if lres.InputsProcessed >= maxInputs {
		t.Fatalf("processed all %d inputs; budget never tripped", maxInputs)
	}
	if len(lres.Quarantined) == 0 {
		t.Fatal("dead worker produced no quarantine entries")
	}
	for _, q := range lres.Quarantined {
		if q.Site != string(fault.SiteDistStep) {
			t.Fatalf("quarantine site %q, want %q", q.Site, fault.SiteDistStep)
		}
		if !strings.Contains(q.Reason, "injected error at dist.step on w1") {
			t.Fatalf("quarantine reason %q does not name the dead worker", q.Reason)
		}
	}
	// Every call to the dead worker succeeded as a call — the failures
	// rode inside the responses — so nothing was retried or counted as an
	// rpc error on either shard.
	for _, ws := range lres.Workers {
		if ws.FailedCalls != 0 || ws.RetriedCalls != 0 {
			t.Fatalf("in-band step failures were retried: worker stats %+v", ws)
		}
	}
	for key := range reg.FlatSnapshot() {
		if strings.HasPrefix(key, "dist_rpc_errors") {
			t.Fatalf("in-band step failures exported an rpc error series %q", key)
		}
	}

	httpT := newHTTPTestTransport(t, store, shards)
	defer httpT.Close()
	hres, err := Run(context.Background(), eng, httpT, dspec, task, groups)
	if err != nil {
		t.Fatalf("http faulted run should degrade, not error: %v", err)
	}
	// Same curve, same quarantine list, same stop — the whole RunResult,
	// failure messages included, must not depend on the transport.
	assertSameRun(t, "http-vs-local chaos", lres.RunResult, hres.RunResult)
}

// TestLatencyInjectionPreservesBytes stalls every step on both workers
// without failing any: the run must complete with a result byte-identical
// to the unfaulted one — injected latency shifts wall time, never bytes.
func TestLatencyInjectionPreservesBytes(t *testing.T) {
	const seed, maxInputs, shards = 11, 30, 2
	store, task, groups := testSetup(t, 120, seed)
	eng := testEngine(t, seed, maxInputs)
	ref, err := eng.RunContext(context.Background(), task, groups)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewLocalTransport(store, shards, nil, nil)
	defer tr.Close()
	res, err := Run(context.Background(), eng, tr, Spec{
		RunID: "t-lat", Task: "wiki", Seed: seed, Shards: shards,
		FaultSpec: "dist.step:lat=2ms,latp=1", FaultSeed: 5,
	}, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != ref.Stop {
		t.Fatalf("latency changed stop reason: %v vs %v", res.Stop, ref.Stop)
	}
	assertSameRun(t, "latency-injected", ref, res.RunResult)
}

// swappedTransport is a Transport with substituted per-shard clients.
type swappedTransport struct {
	Transport
	clients []Client
}

func (t swappedTransport) Clients() []Client { return t.clients }

// swapClient returns tr with c serving shard.
func swapClient(tr Transport, shard int, c Client) Transport {
	clients := append([]Client(nil), tr.Clients()...)
	clients[shard] = c
	return swappedTransport{Transport: tr, clients: clients}
}

// flakyClient fails whole StepBatch calls the way a lost connection does:
// the first fail of them, or every one when fail is negative.
type flakyClient struct {
	Client
	fail  int
	calls int
}

func (c *flakyClient) StepBatch(ctx context.Context, req StepBatchRequest) (StepBatchResponse, error) {
	c.calls++
	if c.fail != 0 {
		if c.fail > 0 {
			c.fail--
		}
		return StepBatchResponse{}, errors.New("connection reset")
	}
	return c.Client.StepBatch(ctx, req)
}

// TestWholeCallFailuresRetry pins where retry lives: a StepBatch call
// that fails as a call (transport loss) is retried with backoff, and a
// worker that comes back within the budget leaves no mark on the run.
func TestWholeCallFailuresRetry(t *testing.T) {
	const seed, maxInputs, shards, lost = 11, 60, 2, 2
	store, task, groups := testSetup(t, 160, seed)
	eng := testEngine(t, seed, maxInputs)
	ref, err := eng.RunContext(context.Background(), task, groups)
	if err != nil {
		t.Fatal(err)
	}
	local := NewLocalTransport(store, shards, nil, nil)
	defer local.Close()
	reg := obs.NewRegistry()
	res, err := Run(context.Background(), eng,
		swapClient(local, 1, &flakyClient{Client: local.Clients()[1], fail: lost}),
		Spec{RunID: "t-flaky", Task: "wiki", Seed: seed, Shards: shards,
			Attempts: lost + 1, Backoff: time.Millisecond, Obs: reg},
		task, groups)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, "flaky worker", ref, res.RunResult)
	if ws := res.Workers[1]; ws.RetriedCalls != lost || ws.FailedCalls != 0 {
		t.Fatalf("flaky worker stats %+v, want %d retried and 0 failed calls", ws, lost)
	}
	if ws := res.Workers[0]; ws.RetriedCalls != 0 || ws.FailedCalls != 0 {
		t.Fatalf("healthy worker stats %+v record retries", ws)
	}
	// The error counters carry both dimensions in the Prometheus
	// exposition: the flaky worker's lost calls appear as one
	// {method,worker} series, and the healthy worker exports none.
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), `dist_rpc_errors{method="step-batch",worker="1"} 2`) {
		t.Fatalf("exposition missing the labeled error counter at %d:\n%s", lost, prom.String())
	}
	if strings.Contains(prom.String(), `worker="0"`) {
		t.Fatalf("healthy worker exported an error series:\n%s", prom.String())
	}
	if got := reg.FlatSnapshot()["dist_rpc_errors_step-batch_1"]; got != lost {
		t.Fatalf("flat dist_rpc_errors_step-batch_1 = %v, want %d", got, lost)
	}
}

// TestUnreachableWorkerQuarantinesAfterAttempts: a worker that never
// answers burns exactly Attempts calls per batch routed to it, then the
// batch's inputs quarantine at dist.step and the failure budget trips.
func TestUnreachableWorkerQuarantinesAfterAttempts(t *testing.T) {
	const seed, maxInputs, shards, attempts = 11, 80, 2, 2
	store, task, groups := testSetup(t, 160, seed)
	eng, err := core.New(core.Config{Seed: seed, MaxInputs: maxInputs, MaxFailureFrac: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	local := NewLocalTransport(store, shards, nil, nil)
	defer local.Close()
	dead := &flakyClient{Client: local.Clients()[1], fail: -1}
	res, err := Run(context.Background(), eng, swapClient(local, 1, dead),
		Spec{RunID: "t-dead", Task: "wiki", Seed: seed, Shards: shards,
			Attempts: attempts, Backoff: time.Millisecond},
		task, groups)
	if err != nil {
		t.Fatalf("run over an unreachable worker should degrade, not error: %v", err)
	}
	if res.Stop != core.StopFailed || len(res.Quarantined) == 0 {
		t.Fatalf("Stop = %v with %d quarantined, want StopFailed", res.Stop, len(res.Quarantined))
	}
	for _, q := range res.Quarantined {
		if q.Site != string(fault.SiteDistStep) || !strings.HasPrefix(q.Reason, "dist: worker 1 failed step ") ||
			!strings.HasSuffix(q.Reason, "connection reset") {
			t.Fatalf("quarantine entry %+v does not name the lost call", q)
		}
	}
	// K=1: one batch per quarantined input, each given up on after exactly
	// Attempts calls.
	ws := res.Workers[1]
	if int(ws.FailedCalls) != len(res.Quarantined) || dead.calls != attempts*len(res.Quarantined) ||
		int(ws.RetriedCalls) != (attempts-1)*len(res.Quarantined) {
		t.Fatalf("%d quarantined after %d calls, worker stats %+v; want %d calls each", len(res.Quarantined), dead.calls, ws, attempts)
	}
}

// cancellingClient cancels the run while its nth StepBatch is in flight
// and fails that call with the context's error, as a transport would.
type cancellingClient struct {
	Client
	cancel context.CancelFunc
	nth    int
	calls  int
}

func (c *cancellingClient) StepBatch(ctx context.Context, req StepBatchRequest) (StepBatchResponse, error) {
	if c.calls++; c.calls == c.nth {
		c.cancel()
		return StepBatchResponse{}, ctx.Err()
	}
	return c.Client.StepBatch(ctx, req)
}

// TestCancelMidBatchIsNotAFailure: a cancel that lands while a batch is in
// flight stops the run as cancelled; the batch it interrupted is dropped,
// not quarantined with the context's error and charged to the arm.
func TestCancelMidBatchIsNotAFailure(t *testing.T) {
	const seed, shards, nth = 11, 2, 10
	store, task, groups := testSetup(t, 160, seed)
	eng, err := core.New(core.Config{Seed: seed, MaxInputs: 80, MaxFailureFrac: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	local := NewLocalTransport(store, shards, nil, nil)
	defer local.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cc := &cancellingClient{Client: local.Clients()[0], cancel: cancel, nth: nth}
	res, err := Run(ctx, eng, swapClient(local, 0, cc),
		Spec{RunID: "t-cancel", Task: "wiki", Seed: seed, Shards: shards}, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	if cc.calls != nth {
		t.Fatalf("shard 0 served %d step batches, want the run to stop at the %dth", cc.calls, nth)
	}
	if res.Stop != core.StopCancelled {
		t.Fatalf("Stop = %v, want StopCancelled", res.Stop)
	}
	for _, q := range res.Quarantined {
		if strings.Contains(q.Reason, "context") {
			t.Fatalf("cancellation was quarantined as a failure: %+v", q)
		}
	}
	steps := 0
	for _, ws := range res.Workers {
		steps += ws.Steps
	}
	if res.InputsProcessed != steps {
		t.Fatalf("accounted %d inputs but workers executed %d: the interrupted batch was not dropped", res.InputsProcessed, steps)
	}
}
