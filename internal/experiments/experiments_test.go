package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zombie/internal/core"
	"zombie/internal/corpus"
	"zombie/internal/recipe"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from the current code")

// tiny is the smallest configuration the harness accepts; every workload
// floors at 400 inputs.
var tiny = Config{Scale: 0.01, Seed: 99}

// TestExperimentsGolden pins everything the harness prints: RunAll at
// the tiny scale, sequential and with eight workers, against
// testdata/all_tiny.golden. The measured wall-clock cells are masked
// first (see maskWallClock). After an intended change to the output,
// regenerate with `go test ./internal/experiments -run ExperimentsGolden
// -update` and read the diff.
func TestExperimentsGolden(t *testing.T) {
	golden := filepath.Join("testdata", "all_tiny.golden")
	for _, workers := range []int{1, 8} {
		cfg := tiny
		cfg.Parallel = workers
		var buf bytes.Buffer
		if err := RunAll(cfg, &buf); err != nil {
			t.Fatalf("parallel %d: %v", workers, err)
		}
		got := maskWallClock(buf.String())
		if *updateGolden && workers == 1 {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("parallel %d: RunAll output differs from %s (rerun with -update and diff):\n%s", workers, golden, got)
		}
	}
}

// maskWallClock replaces the one measured wall-clock cell of RunAll's
// output, T4's index-wall column, with "<wall>". T4's data rows are
// re-joined with single spaces, so the masked cell's width cannot shift
// the columns after it.
func maskWallClock(out string) string {
	lines := strings.Split(out, "\n")
	inT4 := false
	for i, line := range lines {
		switch {
		case strings.HasPrefix(line, "=== T4"):
			inT4 = true
		case line == "" || strings.HasPrefix(line, "note:"):
			inT4 = false
		case inT4 && !strings.HasPrefix(line, "task ") && !strings.HasPrefix(line, "-"):
			fields := strings.Fields(line)
			fields[1] = "<wall>"
			lines[i] = strings.Join(fields, " ")
		}
	}
	return strings.Join(lines, "\n")
}

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
	c, err := compareToTarget(wl, groups, 101)
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
	c, err := compareMedian(wl, groups, 102, 1)
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
		g, err := buildNamedGroups(wl, strat, 6, 7)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
	}
	if _, err := buildNamedGroups(wl, "bogus", 6, 7); err == nil {
		t.Fatal("unknown strategy should fail")
	}
	// kmeans-numeric over a text corpus fails.
	if _, err := buildNamedGroups(wl, "kmeans-numeric", 6, 7); err == nil {
		t.Fatal("kmeans-numeric over text should fail")
	}
	img, err := ImageWorkload(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := buildNamedGroups(img, "kmeans-numeric", 6, 7); err != nil {
		t.Fatalf("kmeans-numeric over images: %v", err)
	}
}

func TestRegistryCoversAllExperiments(t *testing.T) {
	ids := IDs()
	want := []string{"C1", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "S1", "T1", "T2", "T3", "T4"}
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

// TestT2Output: every task row renders numbers, not n/a — the targets
// are reachable by construction.
func TestT2Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("T2", tiny, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "n/a") {
		t.Fatalf("T2 contains n/a rows:\n%s", buf.String())
	}
}

// TestEveryExperimentRunsAtTinyScale runs each experiment on its own and
// compares it to its block of the RunAll golden, so a difference names
// the experiment it is in.
func TestEveryExperimentRunsAtTinyScale(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "all_tiny.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(id, tiny, &buf); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if got, want := maskWallClock(buf.String()), goldenBlock(string(golden), id); got != want {
				t.Fatalf("%s differs from its golden block:\n--- got ---\n%s\n--- want ---\n%s", id, got, want)
			}
		})
	}
}

// goldenBlock is experiment id's output within the RunAll golden: from
// its banner up to the next experiment's.
func goldenBlock(golden, id string) string {
	start := strings.Index(golden, "=== "+id+":")
	if start < 0 {
		return ""
	}
	if end := strings.Index(golden[start:], "\n=== "); end >= 0 {
		return golden[start : start+end+1]
	}
	return golden[start:]
}

// TestT3SessionShapes checks T3's result where it is not degenerate (at
// tiny every version exhausts its 361-input pool and the speedup is
// 1.00x): every zombie version stops early, on fewer inputs than the
// scan's, and the zombie session's engineer wait is below the scan's.
func TestT3SessionShapes(t *testing.T) {
	zombie, scan, indexCost, err := t3Sessions(Config{Scale: 0.1, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	for i := range scan {
		z, s := zombie[i].Run, scan[i].Run
		if z.Stop != core.StopEarly || z.InputsProcessed >= s.InputsProcessed {
			t.Errorf("%s: zombie stopped %s after %d inputs, scan ran %d",
				zombie[i].Recipe.Name(), z.Stop, z.InputsProcessed, s.InputsProcessed)
		}
	}
	zombieWait := recipe.EngineerWait(indexCost, zombie).Total()
	if scanWait := recipe.EngineerWait(0, scan).Total(); zombieWait >= scanWait {
		t.Fatalf("zombie session waited %s, scan session %s", zombieWait, scanWait)
	}
}

// TestC1Output: the warm pass replays a fully populated cache, so it
// misses nothing and reproduces the cold curves exactly.
func TestC1Output(t *testing.T) {
	cold, warm, err := runCacheIterations(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if !sessionsMatch(cold, warm) {
		t.Fatal("warm session differs from cold")
	}
	if _, misses := sessionCacheTraffic(warm); misses != 0 {
		t.Fatalf("warm pass missed the cache %d times", misses)
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

// TestS1Output: at scale 0.05 the comparison is not degenerate, and the
// warm start saves inputs over the cold restart in aggregate.
func TestS1Output(t *testing.T) {
	out, err := runSessionWarmstart(Config{Scale: 0.05, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if out.degenerate() || out.totalSaved <= 0 {
		t.Fatalf("warm start saved %d inputs (degenerate %t)", out.totalSaved, out.degenerate())
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

// TestParallelOutputByteIdentical is the harness's determinism contract:
// cfg.Parallel is a wall-clock knob only, so T2 (tables), F1 (series) and
// C1 (cached session) must render byte-for-byte identically however many
// workers run.
func TestParallelOutputByteIdentical(t *testing.T) {
	for _, id := range []string{"T2", "F1", "C1"} {
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
