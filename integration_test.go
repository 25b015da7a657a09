package zombie

// End-to-end integration test: the full production story through the
// public API only — generate a corpus, persist it as JSONL, reopen it
// lazily from disk, build and persist an index, replay a multi-version
// engineering session with early stopping, and check the economics
// (zombie processes less, quality within tolerance, deterministic replay).

import (
	"path/filepath"
	"testing"
	"time"

	"zombie/internal/corpus"
)

func TestEndToEndEngineeringWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()

	// 1. Generate and persist the corpus (what zombie-datagen does).
	gen := DefaultWikiConfig()
	gen.N = 2500
	inputs, err := GenerateWiki(gen, NewRNG(7000))
	if err != nil {
		t.Fatal(err)
	}
	corpusPath := filepath.Join(dir, "crawl.jsonl")
	if err := WriteJSONL(corpusPath, inputs); err != nil {
		t.Fatal(err)
	}

	// 2. Reopen lazily from disk.
	store, err := OpenDiskStore(corpusPath)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if store.Len() != gen.N {
		t.Fatalf("disk store lost inputs: %d", store.Len())
	}

	// 3. Build the index once and persist it.
	groups, err := BuildIndex(store, IndexKMeansText, 16, 7001)
	if err != nil {
		t.Fatal(err)
	}
	indexPath := filepath.Join(dir, "groups.gob")
	if err := groups.Save(indexPath); err != nil {
		t.Fatal(err)
	}
	groups, err = LoadGroups(indexPath)
	if err != nil {
		t.Fatal(err)
	}

	// 4. An engineering session: three feature-code versions, each run
	// under Zombie and under the status-quo full random scan.
	versions := []FeatureFunc{NewWikiFeature(4), NewWikiFeature(6), NewWikiFeature(8)}
	task, err := NewTask("wiki", store, versions[0],
		func(f FeatureFunc) Model { return NewMultinomialNB(f.Dim(), 2, 1) },
		MetricF1, 1,
		CostModel{PerInput: 100 * time.Millisecond},
		TaskOptions{}, NewRNG(7002))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Policy:    "eps-greedy:0.1",
		Seed:      7003,
		EarlyStop: EarlyStopConfig{Enabled: true, MinInputs: 300},
	}
	zomEng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mode = ModeScanRandom
	cfg.EarlyStop.Enabled = false
	scanEng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	session := func(eng *Engine) (runs []*Result, inputs int, wait time.Duration) {
		for _, v := range versions {
			res, err := eng.Run(task.WithFeature(v), groups)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, res)
			inputs += res.InputsProcessed
			wait += res.SimTime
		}
		return runs, inputs, wait
	}
	zom, zomInputs, zomWait := session(zomEng)
	scan, scanInputs, scanWait := session(scanEng)

	// 5. Economics: zombie processes a fraction of the inputs and waits
	// less; per-version quality stays within tolerance of the full scan.
	if zomInputs >= scanInputs/2 {
		t.Fatalf("zombie processed %d inputs vs scan %d; expected a large cut", zomInputs, scanInputs)
	}
	if zomWait+groups.BuildTime >= scanWait {
		t.Fatalf("zombie wait %v (index %v) vs scan %v", zomWait, groups.BuildTime, scanWait)
	}
	for i := range zom {
		if sq, zq := scan[i].FinalQuality, zom[i].FinalQuality; sq-zq > 0.2 {
			t.Fatalf("version %d: zombie F1 %.3f too far below scan %.3f", i, zq, sq)
		}
	}

	// 6. Determinism: the whole session replays identically.
	again, againInputs, againWait := session(zomEng)
	if againInputs != zomInputs || againWait != zomWait {
		t.Fatal("session replay diverged")
	}
	for i := range zom {
		if again[i].FinalQuality != zom[i].FinalQuality {
			t.Fatalf("version %d quality diverged on replay", i)
		}
	}

	// 7. The index diagnostic confirms the premise the speedup rests on.
	stats := corpus.ComputeStats(store)
	if stats.RelevantFrac < 0.02 || stats.RelevantFrac > 0.2 {
		t.Fatalf("corpus relevance %.3f outside the skewed regime", stats.RelevantFrac)
	}
}
