package core

import (
	"reflect"
	"testing"
	"time"

	"zombie/internal/fault"
	"zombie/internal/featcache"
	"zombie/internal/featurepipe"
	"zombie/internal/otrace"
)

// TestTracingObservational is the tracing identity contract at the engine
// level: the same seed produces byte-identical curves, arms, and
// quarantine lists with a tracer attached or not — including under fault
// injection, where the quarantine list is the interesting output.
func TestTracingObservational(t *testing.T) {
	task, groups := wikiTask(t, 400, 7)
	faults, err := fault.Parse("extract:err=0.05,panic=0.03;corpus.read:err=0.02", 3)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Seed: 11, MaxInputs: 200, BatchSize: 4, Faults: faults}

	plain, err := runTraced(t, base, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	traced := base
	traced.Tracer = otrace.New("test-run", 0)
	withSpans, err := runTraced(t, traced, task, groups)
	if err != nil {
		t.Fatal(err)
	}

	identicalRuns(t, "tracing on/off", plain, withSpans)
	if !reflect.DeepEqual(plain.Arms, withSpans.Arms) {
		t.Fatalf("arms diverged:\n%v\n%v", plain.Arms, withSpans.Arms)
	}
	if !reflect.DeepEqual(plain.Quarantined, withSpans.Quarantined) {
		t.Fatalf("quarantine lists diverged:\n%v\n%v", plain.Quarantined, withSpans.Quarantined)
	}
	if traced.Tracer.Len() == 0 {
		t.Fatal("traced run recorded no spans")
	}
}

// TestRunSpanTreeShape asserts the structure the tracer records for a
// local run: one root "run" span, a "holdout" child, one "batch" span per
// arm pull with the six-phase attrs, and eval spans — all closed.
func TestRunSpanTreeShape(t *testing.T) {
	task, groups := wikiTask(t, 300, 5)
	tr := otrace.New("shape-run", 0)
	cfg := Config{Seed: 3, MaxInputs: 60, BatchSize: 4, Tracer: tr}
	res, err := mustEngine(t, cfg).Run(task, groups)
	if err != nil {
		t.Fatal(err)
	}

	spans, dropped := tr.Snapshot()
	if dropped != 0 {
		t.Fatalf("small run dropped %d spans", dropped)
	}
	counts := map[string]int{}
	var root otrace.Span
	var batchSelect, batchExtract time.Duration
	batchSteps := int64(0)
	for _, sp := range spans {
		counts[sp.Name]++
		if sp.DurNanos < 0 {
			t.Fatalf("span %q (id %d) never closed", sp.Name, sp.ID)
		}
		switch sp.Name {
		case "run":
			root = sp
		case "batch":
			if n, ok := sp.AttrInt("ns.select"); ok {
				batchSelect += time.Duration(n)
			}
			if n, ok := sp.AttrInt("ns.extract"); ok {
				batchExtract += time.Duration(n)
			}
			if n, ok := sp.AttrInt("steps"); ok {
				batchSteps += n
			}
		}
	}
	if counts["run"] != 1 || counts["holdout"] != 1 {
		t.Fatalf("span census: %v (want exactly one run and one holdout)", counts)
	}
	if counts["batch"] < res.InputsProcessed/cfg.BatchSize {
		t.Fatalf("only %d batch spans for %d inputs at K=%d", counts["batch"], res.InputsProcessed, cfg.BatchSize)
	}
	if counts["eval"] == 0 {
		t.Fatalf("no eval spans recorded: %v", counts)
	}
	if batchSteps != int64(res.InputsProcessed) {
		t.Fatalf("batch step attrs sum to %d, run processed %d", batchSteps, res.InputsProcessed)
	}
	// Phase attrs on batch spans must reconcile with the run's phase
	// breakdown — same clocks, read at batch boundaries.
	if batchSelect != res.Phases.Select {
		t.Fatalf("batch ns.select sum %v != phases.Select %v", batchSelect, res.Phases.Select)
	}
	if batchExtract != res.Phases.Extract {
		t.Fatalf("batch ns.extract sum %v != phases.Extract %v", batchExtract, res.Phases.Extract)
	}
	if stop, _ := root.Attr("stop"); stop != res.Stop.String() {
		t.Fatalf("run span stop attr %q, result %v", stop, res.Stop)
	}
	// The cost summary built from these spans attributes every phase to
	// the coordinator (-1) with no parts (uncached run).
	cost := otrace.BuildCost(spans, dropped)
	if cost.WallSeconds <= 0 || len(cost.Cells) == 0 {
		t.Fatalf("degenerate cost summary: %+v", cost)
	}
	for _, c := range cost.Cells {
		if c.Shard != -1 || c.Part != "" {
			t.Fatalf("local run produced non-local cost cell: %+v", c)
		}
	}
}

// TestPartSpansCarryCacheAttribution: a cached composite run emits one
// "part" span per recipe part, and the cost summary grows per-part
// extract cells from them.
func TestPartSpansCarryCacheAttribution(t *testing.T) {
	task, groups := wikiTask(t, 200, 9)
	comp, err := featurepipe.NewCompositeFeature("cwiki",
		featurepipe.NewWikiFeature(2), featurepipe.NewWikiFeature(4), featurepipe.NewWikiFeature(5))
	if err != nil {
		t.Fatal(err)
	}
	task = task.WithFeature(comp)
	cache := mustCache(t, featcache.Config{MaxBytes: 32 << 20})
	defer cache.Close()

	tr := otrace.New("part-run", 0)
	res, err := mustEngine(t, Config{Seed: 4, MaxInputs: 40, Cache: cache, Tracer: tr}).Run(task, groups)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheMisses == 0 {
		t.Fatal("cached run recorded no cache traffic")
	}
	spans, dropped := tr.Snapshot()
	parts := map[string]bool{}
	for _, sp := range spans {
		if sp.Name != "part" {
			continue
		}
		name, _ := sp.Attr("part")
		parts[name] = true
		if _, ok := sp.AttrInt("ns.extract"); !ok {
			t.Fatalf("part span %q missing ns.extract attr: %v", name, sp.Attrs)
		}
	}
	if len(parts) != 3 {
		t.Fatalf("got part spans %v, want the composite's 3 parts", parts)
	}
	cost := otrace.BuildCost(spans, dropped)
	partCells := 0
	for _, c := range cost.Cells {
		if c.Part != "" && c.Phase == "extract" {
			partCells++
		}
	}
	if partCells != 3 {
		t.Fatalf("cost summary has %d per-part extract cells, want 3: %+v", partCells, cost.Cells)
	}
}
