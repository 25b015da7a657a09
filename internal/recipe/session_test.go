package recipe

import (
	"context"
	"reflect"
	"testing"
	"time"

	"zombie/internal/core"
	"zombie/internal/corpus"
	"zombie/internal/featcache"
	"zombie/internal/featurepipe"
	"zombie/internal/index"
	"zombie/internal/rng"
	"zombie/internal/workload"
)

func wikiFixture(t testing.TB, n int, seed int64) (*featurepipe.Task, *index.Groups) {
	t.Helper()
	cfg := corpus.DefaultWikiConfig()
	cfg.N = n
	ins, err := corpus.GenerateWiki(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	store := corpus.NewMemStore(ins)
	task, grouper, err := workload.Build("wiki", store, 0, rng.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	groups, err := grouper.Group(store, 8, rng.New(seed+2))
	if err != nil {
		t.Fatal(err)
	}
	return task, groups
}

func testEngineConfig(cache *featcache.Cache) core.Config {
	return core.Config{
		Policy:    "eps-greedy:0.1",
		Seed:      5,
		MaxInputs: 120,
		EvalEvery: 25,
		Cache:     cache,
	}
}

func TestSessionEditOnePart(t *testing.T) {
	task, groups := wikiFixture(t, 400, 31)
	cache, err := featcache.Open(featcache.Config{}, featurepipe.ResultCodec{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession("edit", task, groups, Config{Engine: testEngineConfig(cache), Decay: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	v1r, err := New("rec", wikiParts())
	if err != nil {
		t.Fatal(err)
	}
	v1, err := s.Submit(context.Background(), v1r)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Index != 1 || v1.WarmStart.Applied {
		t.Fatalf("v1 = index %d applied %v, want 1/false", v1.Index, v1.WarmStart.Applied)
	}
	edited := wikiParts()
	edited[2].Version = 6
	v2r, err := New("rec", edited)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.Submit(context.Background(), v2r)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.WarmStart.Applied || v2.WarmStart.SeededPulls == 0 {
		t.Fatalf("v2 warm start = %+v, want applied with pulls", v2.WarmStart)
	}
	if v2.Run.WarmStartPulls != v2.WarmStart.SeededPulls {
		t.Fatal("session warm-start stats disagree with the run result")
	}
	if got := v2.Diff.Changed; !reflect.DeepEqual(got, []string{"top"}) {
		t.Fatalf("v2 diff changed = %v, want [top]", got)
	}
	if v2.Diff.SharedParts != 2 {
		t.Fatalf("v2 shared parts = %d, want 2", v2.Diff.SharedParts)
	}
	// The two unchanged parts were extracted under v1, so v2's run must
	// hit the part-level cache.
	if v2.Run.CacheHits == 0 {
		t.Fatal("v2 run saw no cache hits despite two unchanged parts")
	}
}

// TestSessionUnchangedRecipeFullReuse pins the acceptance contract: an
// unchanged recipe version gets every part extraction from the cache —
// zero misses.
func TestSessionUnchangedRecipeFullReuse(t *testing.T) {
	task, groups := wikiFixture(t, 400, 31)
	cache, err := featcache.Open(featcache.Config{}, featurepipe.ResultCodec{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession("same", task, groups, Config{Engine: testEngineConfig(cache), Decay: 0})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := New("rec", wikiParts())
	if err != nil {
		t.Fatal(err)
	}
	v1, err := s.Submit(context.Background(), rec)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Run.CacheMisses == 0 {
		t.Fatal("cold v1 should miss the cache")
	}
	v2, err := s.Submit(context.Background(), rec)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Run.CacheMisses != 0 {
		t.Fatalf("unchanged recipe re-run missed the cache %d times, want 0", v2.Run.CacheMisses)
	}
	if v2.Run.CacheHits == 0 {
		t.Fatal("unchanged recipe re-run recorded no cache hits")
	}
	if v2.Diff.SharedParts != v2.Diff.TotalParts {
		t.Fatalf("unchanged recipe shared %d/%d parts", v2.Diff.SharedParts, v2.Diff.TotalParts)
	}
}

// TestSessionZeroDecayIdentity pins the session-level identity contract:
// with decay 0 a later version's run is byte-identical to running the
// same recipe cold, snapshots or not.
func TestSessionZeroDecayIdentity(t *testing.T) {
	task, groups := wikiFixture(t, 400, 31)
	edited := wikiParts()
	edited[2].Version = 6
	v2r, err := New("rec", edited)
	if err != nil {
		t.Fatal(err)
	}

	// Cold: a fresh session running only v2.
	coldSess, err := NewSession("cold", task, groups, Config{Engine: testEngineConfig(nil)})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := coldSess.Submit(context.Background(), v2r)
	if err != nil {
		t.Fatal(err)
	}

	// Decay 0: v1 then v2 in one session; v2 must match cold exactly.
	zeroSess, err := NewSession("zero", task, groups, Config{Engine: testEngineConfig(nil), Decay: 0})
	if err != nil {
		t.Fatal(err)
	}
	v1r, err := New("rec", wikiParts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zeroSess.Submit(context.Background(), v1r); err != nil {
		t.Fatal(err)
	}
	warm0, err := zeroSess.Submit(context.Background(), v2r)
	if err != nil {
		t.Fatal(err)
	}
	a, b := *cold.Run, *warm0.Run
	a.WallTime, b.WallTime = 0, 0
	a.Phases, b.Phases = core.PhaseBreakdown{}, core.PhaseBreakdown{}
	if !reflect.DeepEqual(&a, &b) {
		t.Fatal("decay=0 session v2 differs from cold run of the same recipe")
	}
}

func TestSessionRejectsClassMismatch(t *testing.T) {
	task, groups := wikiFixture(t, 400, 31)
	s, err := NewSession("mismatch", task, groups, Config{Engine: testEngineConfig(nil)})
	if err != nil {
		t.Fatal(err)
	}
	songRec, err := New("songs", []Part{{Name: "a", Kind: "song"}, {Name: "b", Kind: "song", Version: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), songRec); err == nil {
		t.Fatal("song recipe against wiki task: want class-mismatch error")
	}
}

// TestSessionSkipsVersionsWithoutVerdict: a cancelled version is not
// recorded, so the next version diffs against and warm-starts from the
// last version that reached a verdict — exactly as if the cancelled one
// had never been submitted.
func TestSessionSkipsVersionsWithoutVerdict(t *testing.T) {
	task, groups := wikiFixture(t, 400, 31)
	v1r, err := New("rec", wikiParts())
	if err != nil {
		t.Fatal(err)
	}
	edited := wikiParts()
	edited[2].Version = 6
	v2r, err := New("rec", edited)
	if err != nil {
		t.Fatal(err)
	}
	run := func(cancelFirst bool) *Version {
		s, err := NewSession("skip", task, groups, Config{Engine: testEngineConfig(nil), Decay: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Submit(context.Background(), v1r); err != nil {
			t.Fatal(err)
		}
		if cancelFirst {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			v, err := s.Submit(ctx, v2r)
			if err != nil || v.Run.Stop != core.StopCancelled {
				t.Fatalf("cancelled submit: %v, %+v", err, v)
			}
		}
		v, err := s.Submit(context.Background(), v2r)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.versions) != 2 {
			t.Fatalf("session recorded %d versions, want 2", len(s.versions))
		}
		return v
	}
	want, got := run(false), run(true)
	if !reflect.DeepEqual(got.Diff, want.Diff) || got.WarmStart != want.WarmStart ||
		!reflect.DeepEqual(got.Run.Curve, want.Run.Curve) || !reflect.DeepEqual(got.Run.Arms, want.Run.Arms) {
		t.Fatalf("version after a cancelled one did not build on v1:\n got  %+v %+v\n want %+v %+v",
			got.Diff, got.WarmStart, want.Diff, want.WarmStart)
	}
}

// TestSessionScanVsZombie replays two versions as the paper's end-to-end
// comparison does: a zombie session with early stop against a random-scan
// session without it, both with warm-starting off.
func TestSessionScanVsZombie(t *testing.T) {
	task, groups := wikiFixture(t, 2500, 400)
	zomCfg := core.Config{
		Seed: 1,
		EarlyStop: core.EarlyStopConfig{
			Enabled: true, Window: 6, SlopeThreshold: 0.004, Patience: 2, MinInputs: 250,
		},
	}
	replay := func(cfg core.Config) []*Version {
		vs, err := Replay("arm", task, groups, Config{Engine: cfg}, WikiVersions()[6:]...)
		if err != nil {
			t.Fatal(err)
		}
		return vs
	}
	zombie, scan := replay(zomCfg), replay(ScanTwin(zomCfg))
	if len(zombie) != 2 || len(scan) != 2 {
		t.Fatalf("versions: %d vs %d", len(zombie), len(scan))
	}
	inputs := func(vs []*Version) (n int) {
		for _, v := range vs {
			n += v.Run.InputsProcessed
		}
		return n
	}
	// The scan processes the full pool every version.
	for i, v := range scan {
		if v.Run.InputsProcessed != len(task.PoolIdx) || v.Run.Stop == core.StopEarly {
			t.Fatalf("scan version %d processed %d of %d, stop %s", i, v.Run.InputsProcessed, len(task.PoolIdx), v.Run.Stop)
		}
	}
	// Zombie processes less in total and therefore waits less, index build
	// included.
	if inputs(zombie) >= inputs(scan) {
		t.Fatalf("zombie processed %d inputs vs scan %d", inputs(zombie), inputs(scan))
	}
	zw, sw := EngineerWait(groups.BuildTime, zombie), EngineerWait(0, scan)
	if zw.Total() >= sw.Total() {
		t.Fatalf("zombie wait %v vs scan %v", zw.Total(), sw.Total())
	}
	if zw.Think != sw.Think {
		t.Fatal("think time should match across arms")
	}
	// Quality parity: zombie's last version within tolerance of the scan's.
	if zq, sq := zombie[1].Run.FinalQuality, scan[1].Run.FinalQuality; sq-zq > 0.12 {
		t.Fatalf("zombie session lost too much quality: %.3f vs %.3f", zq, sq)
	}
}

func TestNewSessionValidation(t *testing.T) {
	task, groups := wikiFixture(t, 200, 401)
	ok := Config{Engine: testEngineConfig(nil)}
	for _, c := range []struct {
		name   string
		sess   string
		task   *featurepipe.Task
		groups *index.Groups
		cfg    Config
	}{
		{"no name", "", task, groups, ok},
		{"no task", "s", nil, groups, ok},
		{"no groups", "s", task, nil, ok},
		{"decay above 1", "s", task, groups, Config{Engine: ok.Engine, Decay: 1.5}},
		{"bad engine", "s", task, groups, Config{Engine: core.Config{Mode: "bogus"}}},
	} {
		if _, err := NewSession(c.sess, c.task, c.groups, c.cfg); err == nil {
			t.Errorf("%s: NewSession accepted it", c.name)
		}
	}
}

func TestEngineerWait(t *testing.T) {
	versions := []*Version{
		{Run: &core.RunResult{SimTime: 10 * time.Minute}},
		{Run: &core.RunResult{SimTime: 20 * time.Minute}},
	}
	w := EngineerWait(2*time.Minute, versions)
	if w != (Wait{Index: 2 * time.Minute, Processing: 30 * time.Minute, Think: 2 * thinkTime}) {
		t.Fatalf("EngineerWait = %+v", w)
	}
	if w.Total() != 52*time.Minute {
		t.Fatalf("Total = %v", w.Total())
	}
}
