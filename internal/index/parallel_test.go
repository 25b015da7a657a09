package index_test

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"zombie/internal/corpus"
	"zombie/internal/index"
	"zombie/internal/rng"
	"zombie/internal/workload"
)

// budgetStores are one corpus per workload task, small enough to build
// every strategy over in each budget state.
func budgetStores(t *testing.T, n int) map[string]corpus.Store {
	t.Helper()
	wikiCfg := corpus.DefaultWikiConfig()
	wikiCfg.N = n
	wiki, err := corpus.GenerateWiki(wikiCfg, rng.New(83))
	if err != nil {
		t.Fatal(err)
	}
	songCfg := corpus.DefaultSongConfig()
	songCfg.N = n
	songs, err := corpus.GenerateSongs(songCfg, rng.New(84))
	if err != nil {
		t.Fatal(err)
	}
	imageCfg := corpus.DefaultImageConfig()
	imageCfg.N = n
	images, err := corpus.GenerateImages(imageCfg, rng.New(85))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]corpus.Store{
		"wiki":  corpus.NewMemStore(wiki),
		"songs": corpus.NewMemStore(songs),
		"image": corpus.NewMemStore(images),
	}
}

// TestGroupersIdenticalAcrossBudget: the index build borrows idle cores
// and never changes a group. Every NamedGrouper strategy that accepts the
// corpus, and the task's workload grouper, build the same Assign at
// GOMAXPROCS 1 and 8, with the budget free and with every core held.
func TestGroupersIdenticalAcrossBudget(t *testing.T) {
	strategies := []string{"kmeans-text", "kmeans-tfidf", "kmeans-numeric", "lsh-text", "lsh-numeric",
		"attribute:category", "hash", "random", "oracle"}
	n := 1200
	if index.RaceEnabled {
		n = 600
	}
	for task, store := range budgetStores(t, n) {
		build := func(strategy string) []int {
			var grouper index.Grouper
			var err error
			if strategy == "workload" {
				_, grouper, err = workload.Build(task, store, 0, rng.New(86))
			} else {
				grouper, err = index.NamedGrouper(store, strategy, index.KMeansConfig{MaxIter: 10})
			}
			if err != nil {
				return nil // a numeric strategy over text, or the reverse
			}
			g, err := grouper.Group(store, 8, rng.New(87))
			if err != nil {
				t.Fatalf("%s/%s: %v", task, strategy, err)
			}
			return g.Assign
		}
		for _, strategy := range append(strategies, "workload") {
			var want []int
			index.UnderBudget(1, 0, func() { want = build(strategy) })
			if want == nil {
				continue
			}
			for _, procs := range []int{1, 8} {
				for _, held := range []int{0, procs} {
					var got []int
					index.UnderBudget(procs, held, func() { got = build(strategy) })
					if !slices.Equal(got, want) {
						t.Fatalf("%s/%s at GOMAXPROCS %d with %d slots held: Assign differs from GOMAXPROCS 1",
							task, strategy, procs, held)
					}
				}
			}
		}
	}
}

// countingVectorizer wraps a Vectorizer and records the most Vectorize
// calls that ever overlapped. Each call sleeps, so a helper goroutine, if
// the budget lent one, would overlap the caller even on one core.
type countingVectorizer struct {
	index.Vectorizer
	now, peak atomic.Int64
}

func (v *countingVectorizer) Vectorize(in *corpus.Input) []float64 {
	n := v.now.Add(1)
	defer v.now.Add(-1)
	for p := v.peak.Load(); n > p && !v.peak.CompareAndSwap(p, n); p = v.peak.Load() {
	}
	time.Sleep(50 * time.Microsecond)
	return v.Vectorizer.Vectorize(in)
}

// TestKMeansGrouperBorrowsOnlyIdleCores: the build's vectorization runs on
// the caller alone at GOMAXPROCS 1 and when every core is held, and on at
// most GOMAXPROCS goroutines — more than one — on an idle process.
func TestKMeansGrouperBorrowsOnlyIdleCores(t *testing.T) {
	store := budgetStores(t, 300)["wiki"]
	peak := func(procs, held int) int64 {
		v := &countingVectorizer{Vectorizer: index.NewHashedText(64)}
		g := &index.KMeansGrouper{Vectorizer: v, Config: index.KMeansConfig{MaxIter: 2}}
		index.UnderBudget(procs, held, func() {
			if _, err := g.Group(store, 4, rng.New(88)); err != nil {
				t.Fatal(err)
			}
		})
		return v.peak.Load()
	}
	if p := peak(1, 0); p != 1 {
		t.Errorf("GOMAXPROCS 1: %d concurrent Vectorize calls, want 1", p)
	}
	for _, procs := range []int{2, 8} {
		if p := peak(procs, 0); p > int64(procs) {
			t.Errorf("GOMAXPROCS %d: %d concurrent Vectorize calls", procs, p)
		}
		if p := peak(procs, procs); p != 1 {
			t.Errorf("GOMAXPROCS %d, every core held: %d concurrent Vectorize calls, want 1", procs, p)
		}
	}
	if p := peak(8, 0); p < 2 {
		t.Errorf("GOMAXPROCS 8 on an idle process: peak %d, the build borrowed nothing", p)
	}
}
