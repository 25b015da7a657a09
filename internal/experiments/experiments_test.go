package experiments

import (
	"bytes"
	"strings"
	"testing"

	"zombie/internal/corpus"
)

// tiny is the smallest configuration the harness accepts; every workload
// floors at 400 inputs.
var tiny = Config{Scale: 0.01, Seed: 99}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 1 || c.Seed == 0 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	if n := (Config{Scale: 0.001}).n(20000); n != 400 {
		t.Fatalf("scale floor wrong: %d", n)
	}
	if n := (Config{Scale: 0.5}).n(20000); n != 10000 {
		t.Fatalf("scaling wrong: %d", n)
	}
}

func TestWorkloadsBuild(t *testing.T) {
	wls, err := AllWorkloads(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(wls) != 3 {
		t.Fatalf("workloads = %d", len(wls))
	}
	names := map[string]bool{}
	for _, wl := range wls {
		names[wl.Task.Name] = true
		if wl.Store.Len() < 400 {
			t.Fatalf("%s: store too small: %d", wl.Task.Name, wl.Store.Len())
		}
		if wl.DefaultK <= 0 || wl.QualityTarget <= 0 {
			t.Fatalf("%s: defaults unset", wl.Task.Name)
		}
		groups, err := wl.Groups(8, 1)
		if err != nil {
			t.Fatalf("%s: groups: %v", wl.Task.Name, err)
		}
		if err := groups.Validate(); err != nil {
			t.Fatalf("%s: %v", wl.Task.Name, err)
		}
	}
	for _, want := range []string{"wiki", "songs", "image"} {
		if !names[want] {
			t.Fatalf("missing workload %s", want)
		}
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	a, err := WikiWorkload(tiny)
	if err != nil {
		t.Fatal(err)
	}
	b, err := WikiWorkload(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if a.Store.Len() != b.Store.Len() {
		t.Fatal("sizes differ")
	}
	for i := 0; i < a.Store.Len(); i++ {
		if a.Store.Get(i).Text != b.Store.Get(i).Text {
			t.Fatalf("corpus differs at %d", i)
		}
	}
	for i := range a.Task.PoolIdx {
		if a.Task.PoolIdx[i] != b.Task.PoolIdx[i] {
			t.Fatal("pool split differs")
		}
	}
}

func TestCompareToTargetReachesTarget(t *testing.T) {
	wl, err := ImageWorkload(tiny)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := wl.Groups(8, 100)
	if err != nil {
		t.Fatal(err)
	}
	c, err := compareToTarget(wl, groups, "eps-greedy:0.1", wl.QualityTarget, 101, nil)
	if err != nil {
		t.Fatal(err)
	}
	// By construction the target is a fraction of the worse final, so both
	// runs reach it.
	if !c.ScanReached || !c.ZombieReached {
		t.Fatalf("target unreached: scan=%v zombie=%v target=%v scanFinal=%v zombieFinal=%v",
			c.ScanReached, c.ZombieReached, c.Target, c.Scan.FinalQuality, c.Zombie.FinalQuality)
	}
	if c.SpeedupInputs() <= 0 || c.SpeedupSim() <= 0 {
		t.Fatalf("speedups not positive: %v %v", c.SpeedupInputs(), c.SpeedupSim())
	}
}

func TestCompareMedianOrdering(t *testing.T) {
	wl, err := ImageWorkload(tiny)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := wl.Groups(8, 100)
	if err != nil {
		t.Fatal(err)
	}
	c, err := compareMedian(wl, groups, "eps-greedy:0.1", wl.QualityTarget, 102, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c == nil || !c.ScanReached {
		t.Fatal("median comparison empty")
	}
}

func TestRunStrategyUnknown(t *testing.T) {
	wl, err := SongWorkload(tiny)
	if err != nil {
		t.Fatal(err)
	}
	groups, _ := wl.Groups(4, 1)
	if _, err := runStrategy(wl, groups, "nope", "random", 1, nil); err == nil {
		t.Fatal("unknown strategy should fail")
	}
}

func TestBuildNamedGroupsAll(t *testing.T) {
	wl, err := WikiWorkload(tiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []string{"default", "kmeans-text", "kmeans-tfidf", "attribute:category", "hash", "random", "oracle"} {
		g, err := buildNamedGroups(wl, strat, 6, 7, 1)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
	}
	if _, err := buildNamedGroups(wl, "bogus", 6, 7, 1); err == nil {
		t.Fatal("unknown strategy should fail")
	}
	// kmeans-numeric over a text corpus fails.
	if _, err := buildNamedGroups(wl, "kmeans-numeric", 6, 7, 1); err == nil {
		t.Fatal("kmeans-numeric over text should fail")
	}
	img, err := ImageWorkload(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := buildNamedGroups(img, "kmeans-numeric", 6, 7, 1); err != nil {
		t.Fatalf("kmeans-numeric over images: %v", err)
	}
}

func TestRegistryCoversAllExperiments(t *testing.T) {
	ids := IDs()
	want := []string{"B1", "C1", "D1", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "S1", "T1", "T2", "T3", "T4"}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs[%d] = %s, want %s", i, ids[i], want[i])
		}
		if Title(ids[i]) == "" {
			t.Fatalf("%s has no title", ids[i])
		}
	}
	if err := Run("nope", tiny, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown experiment should fail")
	}
}

func TestT1Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("T1", tiny, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"=== T1", "wiki", "songs", "image", "useful%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("T1 output missing %q:\n%s", want, out)
		}
	}
}

func TestT2Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("T2", tiny, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "speedup") || !strings.Contains(out, "wiki") {
		t.Fatalf("T2 output malformed:\n%s", out)
	}
	// Every task row renders numbers, not n/a (targets are reachable by
	// construction).
	if strings.Contains(out, "n/a") {
		t.Fatalf("T2 contains n/a rows:\n%s", out)
	}
}

func TestF2Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("F2", tiny, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, k := range []string{"1", "2", "4", "8"} {
		if !strings.Contains(out, "\n"+k+" ") {
			t.Fatalf("F2 missing k=%s row:\n%s", k, out)
		}
	}
}

func TestF5Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("F5", tiny, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "disabled") || !strings.Contains(out, "saved%") {
		t.Fatalf("F5 output malformed:\n%s", out)
	}
}

func TestF1SeriesOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("F1", tiny, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, s := range []string{"wiki/zombie", "wiki/scan-random", "image/oracle", "series,x,y"} {
		if !strings.Contains(out, s) {
			t.Fatalf("F1 missing series %q", s)
		}
	}
}

func TestEveryExperimentRunsAtTinyScale(t *testing.T) {
	// Slow-ish but exhaustive: every registry entry must execute end to
	// end at the floor scale without error, producing its banner.
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(id, tiny, &buf); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if !strings.Contains(buf.String(), "=== "+id) {
				t.Fatalf("%s: banner missing:\n%s", id, buf.String())
			}
		})
	}
}

func TestT3SessionShapes(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("T3", tiny, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"wiki-v1", "wiki-v8", "session speedup", "scan session total"} {
		if !strings.Contains(out, want) {
			t.Fatalf("T3 missing %q:\n%s", want, out)
		}
	}
}

func TestC1Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("C1", tiny, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"=== C1", "cold", "warm", "cwiki-v1", "cwiki-v4",
		"warm curves identical to cold: true"} {
		if !strings.Contains(out, want) {
			t.Fatalf("C1 output missing %q:\n%s", want, out)
		}
	}
	// The warm pass replays a fully populated cache: zero misses.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "warm pass:") && !strings.Contains(line, "/ 0 misses") {
			t.Fatalf("C1 warm pass should have zero misses: %q", line)
		}
	}
}

// TestCacheRecipesEditOnePart pins the shape C1 depends on: each version
// of the composite session edits exactly one of its three parts, so two of
// them are already in the cache from the version before.
func TestCacheRecipesEditOnePart(t *testing.T) {
	rs := cacheRecipes()
	if len(rs) != 4 {
		t.Fatalf("%d versions, want 4", len(rs))
	}
	for i := 1; i < len(rs); i++ {
		if d := rs[i].DiffFrom(rs[i-1]); d.TotalParts != 3 || d.SharedParts != 2 || len(d.Changed) != 1 {
			t.Errorf("%s -> %s: %+v, want one of three parts changed", rs[i-1].Name(), rs[i].Name(), d)
		}
	}
}

// TestS1Output runs the warm-vs-cold session experiment. The experiment
// asserts its own claim internally (positive total inputs saved across
// independent corpus draws, unless the scale is degenerate), so a clean
// return is the main check; the table shape is pinned on top.
func TestS1Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("S1", Config{Scale: 0.05, Seed: 5}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"=== S1", "cold-to-target", "warm-to-target", "seeded-pulls",
		"total inputs saved by the warm start", "median inputs to re-reach v1 plateau", "extraction cache"} {
		if !strings.Contains(out, want) {
			t.Fatalf("S1 output missing %q:\n%s", want, out)
		}
	}
}

func TestF6ListsAllStrategies(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("F6", tiny, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"kmeans-text", "kmeans-tfidf", "attribute:category", "hash", "random", "oracle"} {
		if !strings.Contains(out, want) {
			t.Fatalf("F6 missing %q", want)
		}
	}
}

func TestF7ListsAllAgingVariants(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("F7", tiny, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"cumulative", "window-500", "window-50", "discount-0.9"} {
		if !strings.Contains(out, want) {
			t.Fatalf("F7 missing %q", want)
		}
	}
}

func TestTableAddRowPanicsOnWidthMismatch(t *testing.T) {
	tb := &Table{ID: "X", Header: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tb.AddRow("only-one")
}

func TestTableFprint(t *testing.T) {
	tb := &Table{ID: "X", Title: "demo", Header: []string{"col", "val"}}
	tb.AddRow("a", "1")
	tb.Notes = append(tb.Notes, "a note")
	var buf bytes.Buffer
	if err := tb.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "=== X: demo ===") || !strings.Contains(out, "note: a note") {
		t.Fatalf("table render wrong:\n%s", out)
	}
}

func TestUsefulFractionBands(t *testing.T) {
	for _, tc := range []struct {
		build  func(Config) (*Workload, error)
		lo, hi float64
	}{
		{WikiWorkload, 0.01, 0.15},
		{SongWorkload, 0.05, 0.35},
		{ImageWorkload, 0.005, 0.08},
	} {
		wl, err := tc.build(Config{Scale: 0.05, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		got := usefulFraction(wl)
		if got < tc.lo || got > tc.hi {
			t.Fatalf("%s: useful fraction %v outside [%v, %v]", wl.Task.Name, got, tc.lo, tc.hi)
		}
		_ = corpus.ComputeStats(wl.Store)
	}
}

// TestParallelOutputByteIdentical is the harness's determinism contract:
// cfg.Parallel is a wall-clock knob only, so T2 (tables), F1 (series) and
// D1 (sharded runs) must render byte-for-byte identically however many
// workers run.
func TestParallelOutputByteIdentical(t *testing.T) {
	for _, id := range []string{"T2", "F1", "D1"} {
		var seq, par bytes.Buffer
		if err := Run(id, tiny, &seq); err != nil {
			t.Fatalf("%s sequential: %v", id, err)
		}
		cfg := tiny
		cfg.Parallel = 8
		if err := Run(id, cfg, &par); err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if seq.String() != par.String() {
			t.Fatalf("%s differs between -parallel 1 and -parallel 8:\n--- sequential ---\n%s\n--- parallel ---\n%s",
				id, seq.String(), par.String())
		}
	}
}
