package dist

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zombie/internal/core"
	"zombie/internal/fault"
	"zombie/internal/obs"
)

// deadWorkerSeed scans fault seeds for one where, under the given spec
// (error rules only, so Fire neither sleeps nor panics), worker w1 fails
// every step and w0 none — fault decisions are pure hashes of (seed,
// site, id), so the scan is deterministic and cheap.
func deadWorkerSeed(t *testing.T, spec string) int64 {
	t.Helper()
	for seed := int64(1); seed < 4000; seed++ {
		inj, err := fault.Parse(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		if inj.Fire(fault.SiteDistStep, "w0") == nil && inj.Fire(fault.SiteDistStep, "w1") != nil {
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
	inj, err := fault.Parse(spec, deadWorkerSeed(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	store, task, groups := testSetup(t, 160, seed)
	reg := obs.NewRegistry()
	eng, err := core.New(core.Config{Seed: seed, MaxInputs: maxInputs, MaxFailureFrac: 0.25, Faults: inj, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	dspec := Spec{RunID: "t-chaos", Task: "wiki", Seed: seed, Shards: shards}

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
	inj, err := fault.Parse("dist.step:lat=2ms,latp=1", 5)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := core.New(core.Config{Seed: seed, MaxInputs: maxInputs, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewLocalTransport(store, shards, nil, nil)
	defer tr.Close()
	res, err := Run(context.Background(), slow, tr,
		Spec{RunID: "t-lat", Task: "wiki", Seed: seed, Shards: shards}, task, groups)
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
// the first fail of them, or every one when fail is negative — counting,
// with aheadOnly, only speculative calls (the ones without step numbers).
// It tallies demand and speculative tries apart; the coordinator may have
// one of each in flight, hence the lock.
type flakyClient struct {
	Client
	fail      int
	aheadOnly bool

	mu           sync.Mutex
	calls, ahead int
}

func (c *flakyClient) StepBatch(ctx context.Context, req StepBatchRequest) (StepBatchResponse, error) {
	c.mu.Lock()
	speculative := len(req.Steps) == 0
	if speculative {
		c.ahead++
	} else {
		c.calls++
	}
	failing := c.fail != 0 && (speculative || !c.aheadOnly)
	if failing && c.fail > 0 {
		c.fail--
	}
	c.mu.Unlock()
	if failing {
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
	observed, err := core.New(core.Config{Seed: seed, MaxInputs: maxInputs, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), observed,
		swapClient(local, 1, &flakyClient{Client: local.Clients()[1], fail: lost}),
		Spec{RunID: "t-flaky", Task: "wiki", Seed: seed, Shards: shards,
			Attempts: lost + 1, Backoff: time.Millisecond},
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
// answers burns exactly Attempts calls per demand batch routed to it, then
// the batch's inputs quarantine at dist.step and the failure budget trips;
// read-ahead spends at most one speculative call finding the shard dead.
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
	// K=1: one demand batch per quarantined input, each given up on after
	// exactly Attempts calls. A flight to the dead shard is given up on the
	// same way, once: nothing it carried is quarantined on its account, and
	// no second flight follows it.
	ws := res.Workers[1]
	if dead.ahead != 0 && dead.ahead != attempts {
		t.Fatalf("dead shard saw %d speculative tries, want one call of %d or none", dead.ahead, attempts)
	}
	given := len(res.Quarantined) + dead.ahead/attempts
	if int(ws.FailedCalls) != given || dead.calls != attempts*len(res.Quarantined) ||
		int(ws.RetriedCalls) != (attempts-1)*given {
		t.Fatalf("%d quarantined after %d demand and %d speculative calls, worker stats %+v; want %d calls each",
			len(res.Quarantined), dead.calls, dead.ahead, ws, attempts)
	}
	if ws.ReadAheadHits != 0 || ws.Steps != 0 {
		t.Fatalf("dead shard served inputs: %+v", ws)
	}
}

// cancellingClient cancels the run while its nth demand StepBatch — the
// one the loop is blocked on — is in flight and fails that call with the
// context's error, as a transport would. active counts calls of either
// kind that have not returned.
type cancellingClient struct {
	Client
	cancel context.CancelFunc
	nth    int64
	calls  atomic.Int64
	active atomic.Int64
}

func (c *cancellingClient) StepBatch(ctx context.Context, req StepBatchRequest) (StepBatchResponse, error) {
	c.active.Add(1)
	defer c.active.Add(-1)
	if len(req.Steps) != 0 && c.calls.Add(1) == c.nth {
		c.cancel()
		return StepBatchResponse{}, ctx.Err()
	}
	return c.Client.StepBatch(ctx, req)
}

// TestCancelMidBatchIsNotAFailure: a cancel that lands while a batch is in
// flight stops the run as cancelled; the batch it interrupted is dropped,
// not quarantined with the context's error and charged to the arm, and
// the flights reading ahead at that moment are dropped with it — no call
// and no goroutine outlives Run.
func TestCancelMidBatchIsNotAFailure(t *testing.T) {
	const seed, shards, nth = 11, 2, 2
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
	goroutines := runtime.NumGoroutine()
	res, err := Run(ctx, eng, swapClient(local, 0, cc),
		Spec{RunID: "t-cancel", Task: "wiki", Seed: seed, Shards: shards}, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	if got := cc.calls.Load(); got != nth {
		t.Fatalf("shard 0 served %d demand step batches, want the run to stop at the %dth", got, nth)
	}
	if n := cc.active.Load(); n != 0 {
		t.Fatalf("%d step-batch calls still in flight after Run returned", n)
	}
	// Run waited for every flight; a goroutine past its last statement may
	// still be exiting, so give the count a moment to settle.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before: a flight leaked", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(time.Millisecond)
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
