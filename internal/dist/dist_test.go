package dist

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"zombie/internal/core"
	"zombie/internal/corpus"
	"zombie/internal/featurepipe"
	"zombie/internal/index"
	"zombie/internal/parallel"
	"zombie/internal/rng"
	"zombie/internal/workload"
)

// testSetup builds the exact task + groups every front end would build
// for (corpus, "wiki", version 0, seed): the dist workers rebuild the
// task from the same recipe, so this is the configuration under which
// byte-identity to the single-process engine is contractual.
func testSetup(t *testing.T, n int, seed int64) (corpus.Store, *featurepipe.Task, *index.Groups) {
	t.Helper()
	cfg := corpus.DefaultWikiConfig()
	cfg.N = n
	ins, err := corpus.GenerateWiki(cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	store := corpus.NewMemStore(ins)
	task, grouper, err := workload.Build("wiki", store, 0, rng.New(seed).Split("task"))
	if err != nil {
		t.Fatal(err)
	}
	groups, err := grouper.Group(store, 6, rng.New(seed).Split("index"))
	if err != nil {
		t.Fatal(err)
	}
	return store, task, groups
}

func testEngine(t *testing.T, seed int64, maxInputs int) *core.Engine {
	t.Helper()
	eng, err := core.New(core.Config{Seed: seed, MaxInputs: maxInputs})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// comparable strips the fields that legitimately differ between runs of
// the same spec (wall clock, phase timing) and keeps everything the
// determinism contract covers, curve included.
func comparable(r *core.RunResult) core.RunResult {
	c := *r
	c.WallTime = 0
	c.Phases = core.PhaseBreakdown{}
	return c
}

func assertSameRun(t *testing.T, label string, want, got *core.RunResult) {
	t.Helper()
	w, g := comparable(want), comparable(got)
	if !reflect.DeepEqual(w, g) {
		wj, _ := json.MarshalIndent(w, "", " ")
		gj, _ := json.MarshalIndent(g, "", " ")
		t.Fatalf("%s diverged from reference run:\nwant %s\ngot  %s", label, wj, gj)
	}
}

// newHTTPTestTransport spins shards workers behind httptest servers —
// each serving the production handler — and returns an HTTPTransport
// pointed at them.
func newHTTPTestTransport(t *testing.T, store corpus.Store, shards int) *HTTPTransport {
	t.Helper()
	resolve := func(string) (corpus.Store, error) { return store, nil }
	addrs := make([]string, shards)
	for i := range addrs {
		srv := httptest.NewServer(NewHandler(NewWorker(resolve, nil, nil)))
		t.Cleanup(srv.Close)
		addrs[i] = srv.URL
	}
	return NewHTTPTransport(addrs)
}

// TestLocalTransportShardIdentity is the headline invariant: the same
// seed and shard map produce a byte-identical curve at any worker count,
// equal to the single-process engine's.
func TestLocalTransportShardIdentity(t *testing.T) {
	const seed, maxInputs = 20160516, 100
	store, task, groups := testSetup(t, 160, seed)
	eng := testEngine(t, seed, maxInputs)
	ref, err := eng.RunContext(context.Background(), task, groups)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Curve) < 2 || ref.InputsProcessed != maxInputs {
		t.Fatalf("reference run too small to be meaningful: %+v", ref)
	}
	for _, shards := range []int{1, 2, 4} {
		tr := NewLocalTransport(store, shards, nil, nil)
		res, err := Run(context.Background(), eng, tr,
			Spec{RunID: "t-local", Task: "wiki", Seed: seed, Shards: shards}, task, groups)
		tr.Close()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		assertSameRun(t, tr.Name(), ref, res.RunResult)
		steps := 0
		for _, ws := range res.Workers {
			steps += ws.Steps
		}
		if steps != maxInputs {
			t.Fatalf("shards=%d: workers report %d steps, want %d", shards, steps, maxInputs)
		}
		if shards > 1 {
			busy := 0
			for _, ws := range res.Workers {
				if ws.Steps > 0 {
					busy++
				}
			}
			if busy < 2 {
				t.Fatalf("shards=%d but only %d workers executed steps", shards, busy)
			}
		}
	}
}

// TestHTTPTransportIdentity pins the other half of the contract: the
// JSON/HTTP transport — real serialization, real sockets — produces the
// same bytes as local and as the single-process engine.
func TestHTTPTransportIdentity(t *testing.T) {
	const seed, maxInputs, shards = 20160516, 75, 2
	store, task, groups := testSetup(t, 140, seed)
	eng := testEngine(t, seed, maxInputs)
	ref, err := eng.RunContext(context.Background(), task, groups)
	if err != nil {
		t.Fatal(err)
	}

	local := NewLocalTransport(store, shards, nil, nil)
	defer local.Close()
	lres, err := Run(context.Background(), eng, local,
		Spec{RunID: "t-l", Task: "wiki", Seed: seed, Shards: shards}, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	httpT := newHTTPTestTransport(t, store, shards)
	defer httpT.Close()
	hres, err := Run(context.Background(), eng, httpT,
		Spec{RunID: "t-h", Task: "wiki", Seed: seed, Shards: shards}, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, "local", ref, lres.RunResult)
	assertSameRun(t, "http", ref, hres.RunResult)
}

// TestMoreShardsThanInputs exercises the empty-shard guard end-to-end: a
// tiny corpus over many workers still runs, still matches the
// single-process curve, and idles the surplus workers.
func TestMoreShardsThanInputs(t *testing.T) {
	const seed, shards = 7, 8
	store, task, groups := testSetup(t, 40, seed)
	eng := testEngine(t, seed, 30)
	ref, err := eng.RunContext(context.Background(), task, groups)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewLocalTransport(store, shards, nil, nil)
	defer tr.Close()
	res, err := Run(context.Background(), eng, tr,
		Spec{RunID: "t-tiny", Task: "wiki", Seed: seed, Shards: shards}, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, "tiny", ref, res.RunResult)
}

// TestCorpusMismatchRejected: a worker seeing a different corpus size
// must abort the run at init, before any divergent step executes.
func TestCorpusMismatchRejected(t *testing.T) {
	const seed = 3
	store, task, groups := testSetup(t, 60, seed)
	other, _, _ := testSetup(t, 80, seed)
	tr := &LocalTransport{}
	// One worker resolves the right corpus, the other a different one.
	for _, s := range []corpus.Store{store, other} {
		s := s
		c := &localClient{w: NewWorker(func(string) (corpus.Store, error) { return s, nil }, nil, nil), calls: make(chan func())}
		go func() {
			for fn := range c.calls {
				fn()
			}
		}()
		tr.clients = append(tr.clients, c)
	}
	defer tr.Close()
	eng := testEngine(t, seed, 20)
	_, err := Run(context.Background(), eng, tr,
		Spec{RunID: "t-mismatch", Task: "wiki", Seed: seed, Shards: 2}, task, groups)
	if err == nil {
		t.Fatal("corpus size mismatch accepted")
	}
}

// peakStore records the most Get calls that ever overlapped. Each call
// sleeps, so a helper goroutine, if the budget lent one, would overlap
// the caller even on one core.
type peakStore struct {
	corpus.Store
	now, peak atomic.Int64
}

func (s *peakStore) Get(i int) *corpus.Input {
	n := s.now.Add(1)
	defer s.now.Add(-1)
	for p := s.peak.Load(); n > p && !s.peak.CompareAndSwap(p, n); p = s.peak.Load() {
	}
	time.Sleep(50 * time.Microsecond)
	return s.Store.Get(i)
}

// TestWorkerHoldoutBorrowsOnlyIdleCores: a worker's holdout extraction
// holds a budget slot, so it reads on the calling goroutine alone at
// GOMAXPROCS 1 and when every core is held, and on at most GOMAXPROCS
// goroutines — more than one — on an idle process, with the same items
// every time.
func TestWorkerHoldoutBorrowsOnlyIdleCores(t *testing.T) {
	base, _, _ := testSetup(t, 1500, 5)
	store := &peakStore{Store: base}
	w := NewWorker(func(string) (corpus.Store, error) { return store, nil }, nil, nil)
	if _, err := w.Init(InitRequest{RunID: "r", Corpus: "c", Task: "wiki", Seed: 5, Shard: 0, Shards: 2}); err != nil {
		t.Fatal(err)
	}
	holdout := func(procs, held int) ([]HoldoutItem, int64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		for ; held > 0; held-- {
			defer parallel.Hold()()
		}
		store.peak.Store(0)
		resp, err := w.Holdout(HoldoutRequest{RunID: "r"})
		if err != nil {
			t.Fatal(err)
		}
		return resp.Items, store.peak.Load()
	}
	want, peak := holdout(1, 0)
	if len(want) <= 64 {
		t.Fatalf("%d owned holdout inputs fill one chunk: nothing to share", len(want))
	}
	if peak != 1 {
		t.Errorf("GOMAXPROCS 1: %d concurrent reads, want 1", peak)
	}
	for _, c := range []struct{ procs, held int }{{4, 4}, {4, 0}} {
		got, peak := holdout(c.procs, c.held)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("GOMAXPROCS %d with %d slots held: items differ from GOMAXPROCS 1", c.procs, c.held)
		}
		switch {
		case c.held == c.procs && peak != 1:
			t.Errorf("GOMAXPROCS %d, every core held: %d concurrent reads, want 1", c.procs, peak)
		case c.held == 0 && (peak < 2 || peak > int64(c.procs)):
			t.Errorf("GOMAXPROCS %d on an idle process: %d concurrent reads, want 2..%d", c.procs, peak, c.procs)
		}
	}
}
