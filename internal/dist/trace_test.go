package dist

import (
	"context"
	"fmt"
	"testing"

	"zombie/internal/core"
	"zombie/internal/featcache"
	"zombie/internal/featurepipe"
	"zombie/internal/otrace"
)

func tracedEngine(t *testing.T, seed int64, maxInputs, batch int, tr *otrace.Tracer) *core.Engine {
	t.Helper()
	eng, err := core.New(core.Config{Seed: seed, MaxInputs: maxInputs, BatchSize: batch, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestTracingIdentityOverHTTPShards is the distributed half of the
// tracing identity contract: at 1 and 4 shards, over the JSON/HTTP
// transport with real serialization, a traced run's curve, arms, and
// quarantine list are byte-identical to an untraced run of the same spec.
func TestTracingIdentityOverHTTPShards(t *testing.T) {
	const seed, maxInputs, batch = 20160516, 60, 4
	store, task, groups := testSetup(t, 120, seed)
	for _, shards := range []int{1, 4} {
		plain, err := Run(context.Background(),
			tracedEngine(t, seed, maxInputs, batch, nil),
			newHTTPTestTransport(t, store, shards),
			Spec{RunID: "t-plain", Task: "wiki", Seed: seed, Shards: shards}, task, groups)
		if err != nil {
			t.Fatalf("shards=%d untraced: %v", shards, err)
		}
		tr := otrace.New("t-traced", 0)
		traced, err := Run(context.Background(),
			tracedEngine(t, seed, maxInputs, batch, tr),
			newHTTPTestTransport(t, store, shards),
			Spec{RunID: "t-traced", Task: "wiki", Seed: seed, Shards: shards}, task, groups)
		if err != nil {
			t.Fatalf("shards=%d traced: %v", shards, err)
		}
		assertSameRun(t, fmt.Sprintf("shards=%d tracing on/off", shards), plain.RunResult, traced.RunResult)
		if tr.Len() == 0 {
			t.Fatalf("shards=%d: traced run recorded no spans", shards)
		}
	}
}

// TestDistSpanStitching pins the cross-process tree shape: worker-side
// spans come back over the wire and land under the coordinator's rpc
// spans, which nest under the engine's batch and holdout spans — one
// connected tree for the whole distributed run — and the cost summary
// gains per-shard and per-part cells from the stitched attrs.
func TestDistSpanStitching(t *testing.T) {
	const seed, maxInputs, batch, shards = 7, 40, 4, 2
	store, task, groups := testSetup(t, 100, seed)
	cache, err := featcache.Open(featcache.Config{MaxBytes: 32 << 20}, featurepipe.ResultCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()

	tr := otrace.New("t-stitch", 0)
	local := NewLocalTransport(store, shards, cache, nil)
	defer local.Close()
	if _, err := Run(context.Background(),
		tracedEngine(t, seed, maxInputs, batch, tr), local,
		Spec{RunID: "t-stitch", Task: "wiki", Seed: seed, Shards: shards}, task, groups); err != nil {
		t.Fatal(err)
	}

	spans, dropped := tr.Snapshot()
	if dropped != 0 {
		t.Fatalf("small run dropped %d spans", dropped)
	}
	byID := map[otrace.SpanID]otrace.Span{}
	counts := map[string]int{}
	for _, sp := range spans {
		byID[sp.ID] = sp
		counts[sp.Name]++
	}
	parentName := func(sp otrace.Span) string { return byID[sp.Parent].Name }
	if counts["worker.step_batch"] == 0 || counts["worker.holdout"] != shards {
		t.Fatalf("missing worker spans in census: %v", counts)
	}
	shardsSeen := map[int64]bool{}
	for _, sp := range spans {
		switch sp.Name {
		case "worker.step_batch":
			if pn := parentName(sp); pn != "dist.step_batch" {
				t.Fatalf("worker.step_batch parented under %q, want dist.step_batch", pn)
			}
			s, ok := sp.AttrInt("shard")
			if !ok {
				t.Fatalf("worker.step_batch span missing shard attr: %v", sp.Attrs)
			}
			shardsSeen[s] = true
			if _, ok := sp.AttrInt("ns.extract"); !ok {
				t.Fatalf("worker.step_batch span missing ns.extract: %v", sp.Attrs)
			}
		case "dist.step_batch":
			if pn := parentName(sp); pn != "batch" {
				t.Fatalf("dist.step_batch parented under %q, want batch", pn)
			}
		case "worker.holdout":
			if pn := parentName(sp); pn != "dist.holdout" {
				t.Fatalf("worker.holdout parented under %q, want dist.holdout", pn)
			}
		case "dist.holdout":
			if pn := parentName(sp); pn != "holdout" {
				t.Fatalf("dist.holdout parented under %q, want holdout", pn)
			}
		case "part":
			if pn := parentName(sp); pn != "dist.finish" {
				t.Fatalf("dist part span parented under %q, want dist.finish", pn)
			}
		}
	}
	if len(shardsSeen) != shards {
		t.Fatalf("worker spans cover shards %v, want all %d", shardsSeen, shards)
	}

	// The cost summary built from the stitched tree attributes work to
	// where it ran: per-shard read/extract cells from worker spans, and
	// per-part extract cells (shard-tagged) from the finish-time part
	// spans the cached workers reported.
	cost := otrace.BuildCost(spans, dropped)
	shardExtract, partCells := map[int]bool{}, 0
	for _, c := range cost.Cells {
		if c.Phase == "extract" && c.Shard >= 0 && c.Part == "" {
			shardExtract[c.Shard] = true
		}
		if c.Part != "" && c.Shard >= 0 {
			partCells++
		}
	}
	if len(shardExtract) != shards {
		t.Fatalf("per-shard extract cells cover %v, want all %d shards: %+v", shardExtract, shards, cost.Cells)
	}
	if partCells == 0 {
		t.Fatalf("no shard-tagged per-part cells in cost summary: %+v", cost.Cells)
	}
}
