package dist

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zombie/internal/core"
	"zombie/internal/corpus"
	"zombie/internal/fault"
	"zombie/internal/featcache"
	"zombie/internal/featurepipe"
	"zombie/internal/index"
	"zombie/internal/otrace"
)

// runDemandOnly is Run with read-ahead off: a coordinator built without
// groups has no member order to predict from, so every batch takes the
// demand path — the synchronous coordinator this package was before
// read-ahead. It is the reference for the cells the single-process engine
// cannot express (a dist.step fault depends on the shard map).
func runDemandOnly(t *testing.T, eng *core.Engine, tr Transport, spec Spec, task *featurepipe.Task, groups *index.Groups) *Result {
	t.Helper()
	ctx := context.Background()
	c, err := newCoordinator(tr, spec, eng.Config(), task, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.init(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunWithExecutor(ctx, task, groups, c)
	c.finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return &Result{RunResult: res, Workers: c.workers}
}

// finishSpy adds up what the workers report having executed at Finish.
type finishSpy struct {
	Client
	executed *atomic.Int64
}

func (c finishSpy) Finish(ctx context.Context, req FinishRequest) (FinishResponse, error) {
	resp, err := c.Client.Finish(ctx, req)
	c.executed.Add(int64(resp.Steps))
	return resp, err
}

func spyOnFinish(tr Transport, executed *atomic.Int64) Transport {
	for shard, c := range tr.Clients() {
		tr = swapClient(tr, shard, finishSpy{Client: c, executed: executed})
	}
	return tr
}

// TestReadAheadIdentity is the read-ahead contract as one table: over both
// transports, at every shard count, batch size, way of stopping and fault
// plan, a run that reads ahead is equal — curve, arms, quarantine list and
// reasons — to the same run fetching every batch on demand and (where the
// single-process engine can express the faults) to that engine; it did
// serve batches from flights; and what it fetched but never consumed is
// bounded by what it consumed, nothing at all on a run to exhaustion.
func TestReadAheadIdentity(t *testing.T) {
	const seed, deadSpec = 20160516, "dist.step:err=0.5"
	store, task, groups := testSetup(t, 400, seed)
	transports := []struct {
		name string
		open func(t *testing.T, shards int) Transport
	}{
		{"local", func(_ *testing.T, shards int) Transport { return NewLocalTransport(store, shards, nil, nil) }},
		{"http", func(t *testing.T, shards int) Transport { return newHTTPTestTransport(t, store, shards) }},
	}
	stops := []struct {
		name string
		cfg  core.Config
	}{
		{"exhaust", core.Config{}},
		{"early-stop", core.Config{EvalEvery: 10, EarlyStop: core.EarlyStopConfig{
			Enabled: true, Window: 3, SlopeThreshold: 1, Patience: 1, MinInputs: 150}}},
		{"max-inputs", core.Config{MaxInputs: 173}},
	}
	faults := []struct {
		name, spec string
		seed       int64
	}{
		{"clean", "", 0},
		{"extract-panic", "extract:panic=0.08", 9},
		{"dead-worker", deadSpec, deadWorkerSeed(t, deadSpec)},
	}
	for _, tp := range transports {
		for _, shards := range []int{1, 2, 4} {
			for _, k := range []int{1, 4, 16} {
				for _, stop := range stops {
					for _, f := range faults {
						name := fmt.Sprintf("%s/shards=%d/k=%d/%s/%s", tp.name, shards, k, stop.name, f.name)
						t.Run(name, func(t *testing.T) {
							inj, err := fault.Parse(f.spec, f.seed)
							if err != nil {
								t.Fatal(err)
							}
							cfg := stop.cfg
							// A full budget: the dead-worker cells must reach their stop, not StopFailed.
							cfg.Seed, cfg.BatchSize, cfg.Faults, cfg.MaxFailureFrac = seed, k, inj, 1
							eng, err := core.New(cfg)
							if err != nil {
								t.Fatal(err)
							}
							var executed atomic.Int64
							tr := tp.open(t, shards)
							defer tr.Close()
							spec := Spec{RunID: "t-demand", Task: "wiki", Seed: seed, Shards: shards}
							want := runDemandOnly(t, eng, tr, spec, task, groups)
							spec.RunID = "t-ahead"
							got, err := Run(context.Background(), eng, spyOnFinish(tr, &executed), spec, task, groups)
							if err != nil {
								t.Fatal(err)
							}
							assertSameRun(t, "read-ahead vs demand-only", want.RunResult, got.RunResult)
							if f.spec != deadSpec {
								ref, err := eng.RunContext(context.Background(), task, groups)
								if err != nil {
									t.Fatal(err)
								}
								assertSameRun(t, "read-ahead vs single-process", ref, got.RunResult)
							}
							var consumed, hits, misses, wasted int64
							for i, ws := range got.Workers {
								if ws.Steps != want.Workers[i].Steps {
									t.Fatalf("worker %d consumed %d inputs reading ahead, %d on demand", i, ws.Steps, want.Workers[i].Steps)
								}
								consumed += int64(ws.Steps)
								hits += ws.ReadAheadHits
								misses += ws.ReadAheadMisses
								wasted += ws.ReadAheadWasted
							}
							if hits+misses != int64(got.InputsProcessed) {
								t.Fatalf("%d hits + %d misses for %d inputs", hits, misses, got.InputsProcessed)
							}
							if k >= 4 && hits == 0 {
								t.Fatalf("no input was served from a flight (%d misses)", misses)
							}
							switch ex := executed.Load(); {
							case stop.name == "exhaust" && (got.Stop != core.StopExhausted || ex != consumed || wasted != 0):
								t.Fatalf("stop %v: workers executed %d inputs for %d consumed, %d wasted; want every pool input exactly once",
									got.Stop, ex, consumed, wasted)
							case stop.name != "exhaust" && (got.Stop == core.StopExhausted || ex > 2*consumed+int64(k)):
								t.Fatalf("stop %v: workers executed %d inputs for %d consumed at K=%d; want at most 2*consumed+K",
									got.Stop, ex, consumed, k)
							}
						})
					}
				}
			}
		}
	}
}

// TestFailedFlightFallsBackToDemand: a speculative call lost after its
// retries is forgotten — nothing it carried is quarantined, the result is
// the unfaulted one — and its shard is only asked on demand from then on.
func TestFailedFlightFallsBackToDemand(t *testing.T) {
	const seed, maxInputs, shards, attempts = 11, 96, 2, 2
	store, task, groups := testSetup(t, 160, seed)
	eng := testBatchEngine(t, seed, maxInputs, 4)
	ref, err := eng.RunContext(context.Background(), task, groups)
	if err != nil {
		t.Fatal(err)
	}
	local := NewLocalTransport(store, shards, nil, nil)
	defer local.Close()
	// Only the first flight's tries fail: a second flight would succeed,
	// and show up as tries beyond attempts.
	flaky := &flakyClient{Client: local.Clients()[1], fail: attempts, aheadOnly: true}
	res, err := Run(context.Background(), eng, swapClient(local, 1, flaky),
		Spec{RunID: "t-flight", Task: "wiki", Seed: seed, Shards: shards, Attempts: attempts, Backoff: time.Millisecond},
		task, groups)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, "failed flight", ref, res.RunResult)
	if len(res.Quarantined) != 0 {
		t.Fatalf("a lost speculative call quarantined %+v", res.Quarantined)
	}
	if flaky.ahead != attempts {
		t.Fatalf("shard 1 saw %d speculative tries, want one call of %d and no second flight", flaky.ahead, attempts)
	}
	if ws := res.Workers[1]; ws.ReadAheadHits != 0 || ws.Steps == 0 || ws.Steps != int(ws.ReadAheadMisses) ||
		ws.FailedCalls != 1 || ws.RetriedCalls != attempts-1 {
		t.Fatalf("shard 1 after its flight failed: %+v; want every input demand-fetched and one failed call", ws)
	}
	if ws := res.Workers[0]; ws.ReadAheadHits == 0 || ws.FailedCalls != 0 {
		t.Fatalf("healthy shard stopped reading ahead: %+v", ws)
	}
}

// TestConcurrentStepBatchesSerialize: a run's speculative and demand
// calls may reach its worker at once; they execute one after the other,
// so each item's CacheHit reads exactly as one of the two sequential
// orders would report it.
func TestConcurrentStepBatchesSerialize(t *testing.T) {
	const seed, n, overlap = 3, 60, 30
	store, _, _ := testSetup(t, 200, seed)
	for round := 0; round < 20; round++ {
		cache, err := featcache.Open(featcache.Config{MaxBytes: 32 << 20}, featurepipe.ResultCodec{})
		if err != nil {
			t.Fatal(err)
		}
		w := NewWorker(func(string) (corpus.Store, error) { return store, nil }, cache, nil)
		if _, err := w.Init(InitRequest{RunID: "r", Task: "wiki", Seed: seed, Shards: 1}); err != nil {
			t.Fatal(err)
		}
		// a and b share their middle: whichever runs second hits there.
		a := StepBatchRequest{RunID: "r"}
		b := StepBatchRequest{RunID: "r"}
		for i := 0; i < n; i++ {
			a.Idxs = append(a.Idxs, i)
			b.Idxs = append(b.Idxs, n-overlap+i)
		}
		hits := func(req StepBatchRequest, first bool) []bool {
			out := make([]bool, n)
			for j, idx := range req.Idxs {
				out[j] = !first && idx >= n-overlap && idx < n
			}
			return out
		}
		var got [2][]bool
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i, req := range []StepBatchRequest{a, b} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				resp, err := w.StepBatch(req)
				if err != nil {
					t.Error(err)
					return
				}
				for _, it := range resp.Items {
					got[i] = append(got[i], it.CacheHit)
				}
			}()
		}
		close(start)
		wg.Wait()
		cache.Close()
		aFirst := reflect.DeepEqual(got[0], hits(a, true)) && reflect.DeepEqual(got[1], hits(b, false))
		bFirst := reflect.DeepEqual(got[0], hits(a, false)) && reflect.DeepEqual(got[1], hits(b, true))
		if !aFirst && !bFirst {
			t.Fatalf("round %d: cache hits match neither sequential order:\na %v\nb %v", round, got[0], got[1])
		}
	}
}

// TestFlightSpans: a flight's rpc span is marked readahead=true, hangs
// under the batch that issued it, and carries the worker's span like any
// other call's — and tracing it changes nothing (the identity table's
// runs are untraced; this one must match them).
func TestFlightSpans(t *testing.T) {
	const seed, maxInputs, batch, shards = 7, 60, 4, 2
	store, task, groups := testSetup(t, 120, seed)
	plain, err := tracedEngine(t, seed, maxInputs, batch, nil).RunContext(context.Background(), task, groups)
	if err != nil {
		t.Fatal(err)
	}
	tr := otrace.New("t-flights", 0)
	httpT := newHTTPTestTransport(t, store, shards)
	defer httpT.Close()
	res, err := Run(context.Background(), tracedEngine(t, seed, maxInputs, batch, tr), httpT,
		Spec{RunID: "t-flights", Task: "wiki", Seed: seed, Shards: shards}, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, "traced flights", plain, res.RunResult)
	spans, _ := tr.Snapshot()
	byID := map[otrace.SpanID]otrace.Span{}
	workerUnder := map[otrace.SpanID]bool{}
	for _, sp := range spans {
		byID[sp.ID] = sp
		if sp.Name == "worker.step_batch" {
			workerUnder[sp.Parent] = true
		}
	}
	flights := 0
	for _, sp := range spans {
		if v, _ := sp.Attr("readahead"); sp.Name != "dist.step_batch" || v != "true" {
			continue
		}
		flights++
		if pn := byID[sp.Parent].Name; pn != "batch" {
			t.Fatalf("flight span parented under %q, want the issuing batch", pn)
		}
		if sp.DurNanos < 0 || !workerUnder[sp.ID] {
			t.Fatalf("flight span %+v is open or has no worker span stitched beneath", sp)
		}
	}
	if flights == 0 {
		t.Fatal("no dist.step_batch span is marked readahead=true")
	}
}
