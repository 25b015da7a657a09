package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"zombie/internal/corpus"
	"zombie/internal/rng"
	"zombie/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from the current code")

// TestSessionGolden pins what `zombie -session` prints on a small
// generated wiki corpus: the per-version table of both arms and the
// engineer-wait totals. The index is built here with a fixed build time
// and handed over with -index, so the output carries no wall-clock value
// and compares byte for byte.
func TestSessionGolden(t *testing.T) {
	gen := corpus.DefaultWikiConfig()
	gen.N = 1200
	ins, err := corpus.GenerateWiki(gen, rng.New(20160516))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	wiki := filepath.Join(dir, "wiki.jsonl")
	if err := corpus.WriteJSONL(wiki, ins); err != nil {
		t.Fatal(err)
	}
	store := corpus.NewMemStore(ins)
	_, grouper, err := workload.Build("wiki", store, 0, rng.New(3).Split("task"))
	if err != nil {
		t.Fatal(err)
	}
	groups, err := grouper.Group(store, 8, rng.New(3).Split("index"))
	if err != nil {
		t.Fatal(err)
	}
	groups.BuildTime = 90 * time.Second
	idx := filepath.Join(dir, "groups.gob")
	if err := groups.Save(idx); err != nil {
		t.Fatal(err)
	}

	got, _ := invoke(t, "-corpus", wiki, "-task", "wiki", "-session", "-index", idx, "-early-stop", "-seed", "3")
	golden := filepath.Join("testdata", "session.golden")
	if *updateGolden {
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
		t.Errorf("zombie -session output drifted from %s (rerun with -update after an intended change)\n--- got:\n%s--- want:\n%s", golden, got, want)
	}
}
