package index

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"zombie/internal/corpus"
	"zombie/internal/rng"
)

func wikiStore(t *testing.T, n int, seed int64) *corpus.MemStore {
	t.Helper()
	cfg := corpus.DefaultWikiConfig()
	cfg.N = n
	ins, err := corpus.GenerateWiki(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return corpus.NewMemStore(ins)
}

func imageStore(t *testing.T, n int, seed int64) *corpus.MemStore {
	t.Helper()
	cfg := corpus.DefaultImageConfig()
	cfg.N = n
	ins, err := corpus.GenerateImages(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return corpus.NewMemStore(ins)
}

func allGroupers() []Grouper {
	return []Grouper{
		&KMeansGrouper{Vectorizer: NewHashedText(64), Config: KMeansConfig{MaxIter: 10}},
		&LSHGrouper{Vectorizer: NewHashedText(64)},
		&AttributeGrouper{Attr: "category"},
		HashGrouper{},
		RandomGrouper{},
		OracleGrouper{},
	}
}

func TestAllGroupersProduceValidPartitions(t *testing.T) {
	store := wikiStore(t, 500, 70)
	r := rng.New(71)
	for _, g := range allGroupers() {
		groups, err := g.Group(store, 8, r.Split(g.Name()))
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if groups.K() != 8 {
			t.Fatalf("%s: K = %d", g.Name(), groups.K())
		}
		if groups.Len() != 500 {
			t.Fatalf("%s: Len = %d", g.Name(), groups.Len())
		}
		if err := groups.Validate(); err != nil {
			t.Fatalf("%s: invalid partition: %v", g.Name(), err)
		}
		total := 0
		for _, s := range groups.Sizes() {
			total += s
		}
		if total != 500 {
			t.Fatalf("%s: sizes sum to %d", g.Name(), total)
		}
	}
}

func TestGroupersRejectBadK(t *testing.T) {
	store := wikiStore(t, 50, 72)
	r := rng.New(73)
	for _, g := range allGroupers() {
		if _, err := g.Group(store, 0, r); err == nil {
			t.Fatalf("%s: k=0 should fail", g.Name())
		}
	}
}

func TestKMeansGrouperConcentratesRelevance(t *testing.T) {
	// The core index property: with an informative vectorizer, some group
	// must end up with a relevance density far above the corpus average.
	store := wikiStore(t, 2000, 74)
	g := &KMeansGrouper{Vectorizer: NewHashedText(128), Config: KMeansConfig{MaxIter: 20}}
	groups, err := g.Group(store, 16, rng.New(75))
	if err != nil {
		t.Fatal(err)
	}
	baseRate := corpus.ComputeStats(store).RelevantFrac
	if best := bestRelevantDensity(store, groups, 10); best < 2*baseRate {
		t.Fatalf("k-means index failed to concentrate relevance: best %.3f vs base %.3f", best, baseRate)
	}
}

// bestRelevantDensity is the relevant fraction of the densest group that
// has at least minSize members.
func bestRelevantDensity(store corpus.Store, groups *Groups, minSize int) float64 {
	best := 0.0
	for _, members := range groups.Members {
		if len(members) < minSize {
			continue
		}
		rel := 0
		for _, idx := range members {
			if store.Get(idx).Truth.Relevant {
				rel++
			}
		}
		if d := float64(rel) / float64(len(members)); d > best {
			best = d
		}
	}
	return best
}

func TestHashGrouperUniformDensity(t *testing.T) {
	// The uninformative baseline: group densities should all be near the
	// corpus average.
	store := imageStore(t, 4000, 76)
	groups, err := HashGrouper{}.Group(store, 8, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	base := corpus.ComputeStats(store).RelevantFrac
	_ = base
	basePos := 0
	for i := 0; i < store.Len(); i++ {
		if store.Get(i).Truth.Class == 1 {
			basePos++
		}
	}
	baseRate := float64(basePos) / float64(store.Len())
	for grp, members := range groups.Members {
		pos := 0
		for _, idx := range members {
			if store.Get(idx).Truth.Class == 1 {
				pos++
			}
		}
		rate := float64(pos) / float64(len(members))
		if rate > 4*baseRate+0.02 {
			t.Fatalf("hash group %d suspiciously dense: %.3f vs %.3f", grp, rate, baseRate)
		}
	}
}

func TestRandomGrouperBalanced(t *testing.T) {
	store := wikiStore(t, 1000, 78)
	groups, err := RandomGrouper{}.Group(store, 7, rng.New(79))
	if err != nil {
		t.Fatal(err)
	}
	for grp, size := range groups.Sizes() {
		if size < 1000/7-1 || size > 1000/7+1 {
			t.Fatalf("random group %d size %d not balanced", grp, size)
		}
	}
}

func TestOracleGrouperSeparatesRelevance(t *testing.T) {
	store := wikiStore(t, 1000, 80)
	groups, err := OracleGrouper{}.Group(store, 8, rng.New(81))
	if err != nil {
		t.Fatal(err)
	}
	for grp, members := range groups.Members {
		for _, idx := range members {
			rel := store.Get(idx).Truth.Relevant
			if grp < 4 && !rel {
				t.Fatalf("irrelevant input in oracle relevant-group %d", grp)
			}
			if grp >= 4 && rel {
				t.Fatalf("relevant input in oracle irrelevant-group %d", grp)
			}
		}
	}
	if _, err := (OracleGrouper{}).Group(store, 1, rng.New(1)); err == nil {
		t.Fatal("oracle with k=1 should fail")
	}
}

func TestAttributeGrouperDedicatesTopValues(t *testing.T) {
	store := wikiStore(t, 1000, 82)
	groups, err := (&AttributeGrouper{Attr: "category"}).Group(store, 10, rng.New(83))
	if err != nil {
		t.Fatal(err)
	}
	// Every member of group 0 (the most common category) must share the
	// same attribute value.
	if len(groups.Members[0]) == 0 {
		t.Fatal("top attribute group empty")
	}
	first := store.Get(groups.Members[0][0]).Meta["category"]
	for _, idx := range groups.Members[0] {
		if store.Get(idx).Meta["category"] != first {
			t.Fatal("top attribute group mixes values")
		}
	}
}

func TestLSHGrouperConcentratesRelevance(t *testing.T) {
	// LSH groups are noisier than k-means but must still concentrate
	// relevance above the base rate on the skewed wiki corpus.
	store := wikiStore(t, 2000, 600)
	g := &LSHGrouper{Vectorizer: NewHashedText(128)}
	groups, err := g.Group(store, 16, rng.New(601))
	if err != nil {
		t.Fatal(err)
	}
	baseRate := corpus.ComputeStats(store).RelevantFrac
	if lift := bestRelevantDensity(store, groups, 1) / baseRate; lift < 1.5 {
		t.Fatalf("LSH lift %v too low; index uninformative", lift)
	}
}

func TestLSHGrouperDeterministic(t *testing.T) {
	store := wikiStore(t, 300, 602)
	g := &LSHGrouper{Vectorizer: NewHashedText(64)}
	a, _ := g.Group(store, 8, rng.New(603))
	b, _ := g.Group(store, 8, rng.New(603))
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("LSH grouping not deterministic")
		}
	}
}

func TestBitsFor(t *testing.T) {
	for _, tc := range []struct{ k, min int }{{1, 1}, {2, 3}, {8, 5}, {64, 8}} {
		if got := bitsFor(tc.k); got < tc.min {
			t.Fatalf("bitsFor(%d) = %d, want >= %d", tc.k, got, tc.min)
		}
	}
	if bitsFor(1<<25) > 20 {
		t.Fatal("bitsFor should cap at 20")
	}
}

func TestGroupsValidateCatchesCorruption(t *testing.T) {
	store := wikiStore(t, 100, 84)
	groups, _ := RandomGrouper{}.Group(store, 4, rng.New(85))
	// Corrupt: move a member without updating Assign.
	groups.Members[0] = append(groups.Members[0], groups.Members[1][0])
	if err := groups.Validate(); err == nil {
		t.Fatal("Validate missed duplicated input")
	}
}

func TestGroupsSaveLoadRoundTrip(t *testing.T) {
	store := wikiStore(t, 200, 86)
	groups, _ := (&AttributeGrouper{Attr: "category"}).Group(store, 6, rng.New(87))
	path := filepath.Join(t.TempDir(), "groups.gob")
	if err := groups.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadGroups(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.K() != groups.K() || back.Strategy != groups.Strategy || back.Len() != groups.Len() {
		t.Fatal("round trip lost metadata")
	}
	for g := range groups.Members {
		if len(back.Members[g]) != len(groups.Members[g]) {
			t.Fatal("round trip lost members")
		}
	}
}

// TestGroupsSaveFailureKeepsPreviousFile: Save installs by rename, so an
// encode that fails part-way must leave the file a previous Save wrote
// byte for byte, and no temporary beside it.
func TestGroupsSaveFailureKeepsPreviousFile(t *testing.T) {
	store := wikiStore(t, 100, 88)
	groups, _ := RandomGrouper{}.Group(store, 4, rng.New(89))
	dir := t.TempDir()
	path := filepath.Join(dir, "groups.gob")
	if err := groups.Save(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	failed := errors.New("encoder failed")
	err = writeAtomic(path, func(w io.Writer) error {
		w.Write(before[:len(before)/2])
		return failed
	})
	if !errors.Is(err, failed) {
		t.Fatalf("writeAtomic = %v, want the write's error", err)
	}
	after, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(before, after) {
		t.Fatalf("failed Save touched the previous file (err %v, %d -> %d bytes)", err, len(before), len(after))
	}
	if _, err := LoadGroups(path); err != nil {
		t.Fatalf("previous file no longer loads: %v", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("failed Save left %d entries in the directory, want only groups.gob", len(entries))
	}
}

// FuzzLoadGroups: arbitrary bytes in the groups file yield an error or a
// partition that passes Validate — never a panic.
func FuzzLoadGroups(f *testing.F) {
	var valid bytes.Buffer
	if err := gob.NewEncoder(&valid).Encode(fromAssign("test", []int{0, 1, 1, 0, 2}, 3)); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add([]byte{})
	path := filepath.Join(f.TempDir(), "groups.gob")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := LoadGroups(path)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("LoadGroups returned an invalid partition: %v", err)
		}
	})
}

func TestLoadGroupsMissingFile(t *testing.T) {
	if _, err := LoadGroups("/nonexistent/groups.gob"); err == nil {
		t.Fatal("expected error")
	}
}

func TestFromAssignPropertyEveryInputOnce(t *testing.T) {
	if err := quick.Check(func(raw [64]uint8, kRaw uint8) bool {
		k := int(kRaw%7) + 1
		assign := make([]int, len(raw))
		for i, v := range raw {
			assign[i] = int(v) % k
		}
		g := fromAssign("test", assign, k)
		return g.Validate() == nil && g.K() == k && g.Len() == len(raw)
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestNamedGrouper pins the strategy table: each built-in name selects its
// grouper, k-means strategies carry the caller's config, and a bad name or
// a keyless attribute strategy is refused.
func TestNamedGrouper(t *testing.T) {
	text := corpus.NewMemStore([]*corpus.Input{{ID: "a", Kind: corpus.TextKind, Text: "born infobox"}})
	num := corpus.NewMemStore([]*corpus.Input{{ID: "b", Kind: corpus.NumericKind, Values: []float64{1, 2}}})
	cfg := KMeansConfig{MaxIter: 25}
	for _, c := range []struct {
		strategy string
		store    corpus.Store
		want     string
	}{
		{"kmeans-text", text, "kmeans(hashed-text)"},
		{"kmeans-tfidf", text, "kmeans(tfidf)"},
		{"kmeans-numeric", num, "kmeans(numeric)"},
		{"lsh-text", text, "lsh(hashed-text)"},
		{"lsh-numeric", num, "lsh(numeric)"},
		{"attribute:category", text, "attribute(category)"},
		{"hash", text, "hash"},
		{"random", text, "random"},
		{"oracle", text, "oracle"},
	} {
		g, err := NamedGrouper(c.store, c.strategy, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.strategy, err)
		}
		if g.Name() != c.want {
			t.Errorf("%s: grouper %s, want %s", c.strategy, g.Name(), c.want)
		}
		if km, ok := g.(*KMeansGrouper); ok && km.Config != cfg {
			t.Errorf("%s: config %+v, want %+v", c.strategy, km.Config, cfg)
		}
	}
	for _, bad := range []string{"", "bogus", "attribute", "attribute:", "attributecategory"} {
		if _, err := NamedGrouper(text, bad, cfg); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	if _, err := NamedGrouper(text, "kmeans-numeric", cfg); err == nil {
		t.Error("kmeans-numeric over a text corpus accepted")
	}
}
