package zombie

import (
	"strings"
	"testing"

	"zombie/internal/corpus"
	"zombie/internal/featurepipe"
)

func demoStore(t *testing.T, n int, seed int64) Store {
	t.Helper()
	cfg := corpus.DefaultImageConfig()
	cfg.N = n
	ins, err := corpus.GenerateImages(cfg, NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return NewMemStore(ins)
}

func demoTask(t *testing.T, store Store, seed int64) *Task {
	t.Helper()
	cfg := corpus.DefaultImageConfig()
	f := featurepipe.NewImageFeature(1, cfg)
	task, err := NewTask("demo", store, f,
		func(ff FeatureFunc) Model { return NewGaussianNB(ff.Dim(), 2, 1e-3) },
		MetricF1, 1, CostModel{}, TaskOptions{}, NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return task
}

func TestPublicAPIEndToEnd(t *testing.T) {
	store := demoStore(t, 2000, 500)
	groups, err := BuildIndex(store, IndexKMeansNumeric, 8, 501)
	if err != nil {
		t.Fatal(err)
	}
	if groups.K() != 8 || groups.Len() != 2000 {
		t.Fatalf("groups: K=%d Len=%d", groups.K(), groups.Len())
	}
	task := demoTask(t, store, 502)
	eng, err := NewEngine(Config{
		Policy:    "eps-greedy:0.1",
		Seed:      503,
		MaxInputs: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(task, groups)
	if err != nil {
		t.Fatal(err)
	}
	if res.InputsProcessed != 300 || res.Stop != StopBudget {
		t.Fatalf("run: %s", res.Summary())
	}
	if !strings.Contains(res.Summary(), "zombie(") {
		t.Fatalf("summary missing strategy: %s", res.Summary())
	}
	cfg := eng.Config()
	cfg.Mode = ModeScanRandom
	scanEng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := scanEng.Run(task, nil)
	if err != nil {
		t.Fatal(err)
	}
	if scan.InputsProcessed != 300 {
		t.Fatalf("scan run: %s", scan.Summary())
	}
}

func TestBuildIndexStrategies(t *testing.T) {
	numeric := demoStore(t, 400, 504)
	wcfg := corpus.DefaultWikiConfig()
	wcfg.N = 400
	wiki, err := corpus.GenerateWiki(wcfg, NewRNG(505))
	if err != nil {
		t.Fatal(err)
	}
	text := NewMemStore(wiki)
	cases := []struct {
		store    Store
		strategy IndexStrategy
	}{
		{text, IndexKMeansText},
		{text, IndexKMeansTFIDF},
		{numeric, IndexKMeansNumeric},
		{text, IndexLSHText},
		{numeric, IndexLSHNumeric},
		{text, IndexStrategy("attribute:category")},
		{numeric, IndexHash},
		{numeric, IndexRandom},
	}
	for _, tc := range cases {
		groups, err := BuildIndex(tc.store, tc.strategy, 6, 506)
		if err != nil {
			t.Fatalf("%s: %v", tc.strategy, err)
		}
		if groups.K() != 6 {
			t.Fatalf("%s: K=%d", tc.strategy, groups.K())
		}
		if err := groups.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.strategy, err)
		}
	}
}

func TestBuildIndexErrors(t *testing.T) {
	store := demoStore(t, 100, 507)
	if _, err := BuildIndex(store, "nope", 4, 1); err == nil {
		t.Fatal("unknown strategy should fail")
	}
	if _, err := BuildIndex(store, IndexAttribute, 4, 1); err == nil {
		t.Fatal("attribute without key should fail")
	}
	// Numeric clustering over a text corpus fails.
	wcfg := corpus.DefaultWikiConfig()
	wcfg.N = 50
	wiki, _ := corpus.GenerateWiki(wcfg, NewRNG(1))
	if _, err := BuildIndex(NewMemStore(wiki), IndexKMeansNumeric, 4, 1); err == nil {
		t.Fatal("numeric strategy over text should fail")
	}
}

func TestDiskStoreThroughPublicAPI(t *testing.T) {
	cfg := corpus.DefaultImageConfig()
	cfg.N = 400
	ins, err := GenerateImages(cfg, NewRNG(600))
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/c.jsonl"
	if err := WriteJSONL(path, ins); err != nil {
		t.Fatal(err)
	}
	ds, err := OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	groups, err := BuildIndex(ds, IndexKMeansNumeric, 6, 601)
	if err != nil {
		t.Fatal(err)
	}
	task := demoTask(t, ds, 602)
	eng, err := NewEngine(Config{Seed: 603, MaxInputs: 50})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(task, groups); err != nil {
		t.Fatal(err)
	}
}

func TestPolicySpecsExposed(t *testing.T) {
	specs := PolicySpecs()
	if len(specs) < 10 {
		t.Fatalf("PolicySpecs = %v", specs)
	}
	for _, spec := range specs {
		if _, err := NewEngine(Config{Policy: PolicySpec(spec)}); err != nil {
			t.Fatalf("spec %q rejected by engine: %v", spec, err)
		}
	}
	if _, err := NewEngine(Config{Policy: "not-a-policy"}); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestAliasRoundTrip(t *testing.T) {
	// Dense and sparse vectors flow through the aliased constructors.
	v := DenseVec([]float64{1, 2})
	if v.Dim() != 2 {
		t.Fatal("DenseVec alias broken")
	}
	ex := Example{Features: v, Class: 1}
	if ex.Class != 1 {
		t.Fatal("Example alias broken")
	}
	if TextKind.String() != "text" || NumericKind.String() != "numeric" {
		t.Fatal("Kind alias broken")
	}
}
