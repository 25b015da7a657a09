package featurepipe

import (
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"zombie/internal/corpus"
	"zombie/internal/learner"
	"zombie/internal/rng"
)

// sequentialHoldout is the holdout build as one loop over HoldoutIdx on
// the calling goroutine: the reference the shared build must reproduce.
func sequentialHoldout(t *Task) ([]learner.Example, []HoldoutSkip) {
	var examples []learner.Example
	var skips []HoldoutSkip
	for _, idx := range t.HoldoutIdx {
		res, id, err := t.ExtractHoldout(idx)
		if err != nil {
			skips = append(skips, HoldoutSkip{InputID: id, Reason: err.Error()})
			continue
		}
		if res.Produced {
			examples = append(examples, res.Example)
		}
	}
	return examples, skips
}

// TestSharedHoldoutBuildMatchesSequential: however many cores the build
// borrows, it yields the sequential loop's examples and skips, in order,
// over every store, failure mode, cache state and feature kind.
func TestSharedHoldoutBuildMatchesSequential(t *testing.T) {
	const n = 300
	wiki := wikiInputs(t, n, 120)
	songCfg := corpus.DefaultSongConfig()
	songCfg.N = n
	songs, err := corpus.GenerateSongs(songCfg, rng.New(121))
	if err != nil {
		t.Fatal(err)
	}
	composite, err := NewCompositeFeature("wiki-v2+v5", NewWikiFeature(2), NewWikiFeature(5))
	if err != nil {
		t.Fatal(err)
	}
	kinds := []struct {
		name    string
		inputs  []*corpus.Input
		feature FeatureFunc
	}{
		{"wiki", wiki, NewWikiFeature(3)},
		{"song", songs, NewSongFeature(2, songCfg)},
		{"composite", wiki, composite},
	}
	for _, kind := range kinds {
		path := filepath.Join(t.TempDir(), kind.name+".jsonl")
		if err := corpus.WriteJSONL(path, kind.inputs); err != nil {
			t.Fatal(err)
		}
		disk, err := corpus.OpenDiskStore(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { disk.Close() })
		stores := map[string]corpus.Store{"mem": corpus.NewMemStore(kind.inputs), "disk": disk}
		for storeName, store := range stores {
			holdout := rng.New(122).Perm(n)
			faults := map[string]*Task{
				"clean":      {Store: store, Feature: kind.feature},
				"faulty":     {Store: store, Feature: &FaultyFeature{Inner: kind.feature, ErrPct: 5, PanicPct: 5}},
				"unreadable": {Store: unreadableStore{Store: store, bad: holdout[7]}, Feature: kind.feature},
			}
			for faultName, task := range faults {
				task.Name, task.Metric, task.Positive, task.HoldoutIdx = kind.name, learner.MetricAccuracy, 1, holdout
				wantEx, wantSkips := sequentialHoldout(task)
				if (faultName == "clean") != (len(wantSkips) == 0) {
					t.Fatalf("%s/%s/%s: %d reference skips", kind.name, storeName, faultName, len(wantSkips))
				}
				for _, procs := range []int{1, 4} {
					cache := newTestCache(t)
					for _, state := range []string{"nocache", "cold", "warm"} {
						build := task
						if state != "nocache" {
							build = task.WithFeature(Cached(task.Feature, cache, nil))
						}
						label := kind.name + "/" + storeName + "/" + faultName + "/" + state
						prev := runtime.GOMAXPROCS(procs)
						h, skips, err := build.BuildHoldoutTolerant()
						runtime.GOMAXPROCS(prev)
						if err != nil {
							t.Fatalf("%s at GOMAXPROCS %d: %v", label, procs, err)
						}
						if !reflect.DeepEqual(h.Examples, wantEx) {
							t.Fatalf("%s at GOMAXPROCS %d: %d examples differ from the sequential %d",
								label, procs, len(h.Examples), len(wantEx))
						}
						if !reflect.DeepEqual(skips, wantSkips) {
							t.Fatalf("%s at GOMAXPROCS %d: skips %v, want %v", label, procs, skips, wantSkips)
						}
					}
				}
			}
		}
	}
}
