package index

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"zombie/internal/corpus"
	"zombie/internal/parallel"
	"zombie/internal/rng"
)

// Groups is a partition of a corpus into index groups — the arms of
// Zombie's bandit. Members lists each group's input indices in a fixed
// order; online runs keep a private cursor per group, so one Groups value
// is safely shared across runs and sessions.
type Groups struct {
	// Strategy names the grouper that built the partition.
	Strategy string
	// Members maps group -> ordered input indices into the source store.
	Members [][]int
	// Assign maps input index -> group.
	Assign []int
	// BuildTime is how long construction took (experiment T4 amortizes
	// it against per-run savings).
	BuildTime time.Duration
}

// K returns the number of groups.
func (g *Groups) K() int { return len(g.Members) }

// Len returns the number of grouped inputs.
func (g *Groups) Len() int { return len(g.Assign) }

// Sizes returns the group sizes.
func (g *Groups) Sizes() []int {
	out := make([]int, len(g.Members))
	for i, m := range g.Members {
		out[i] = len(m)
	}
	return out
}

// Validate checks structural invariants: every input appears in exactly
// one group and Assign agrees with Members.
func (g *Groups) Validate() error {
	seen := make([]int, len(g.Assign))
	for grp, members := range g.Members {
		for _, idx := range members {
			if idx < 0 || idx >= len(g.Assign) {
				return fmt.Errorf("index: group %d contains out-of-range input %d", grp, idx)
			}
			seen[idx]++
			if g.Assign[idx] != grp {
				return fmt.Errorf("index: input %d assigned to %d but member of %d", idx, g.Assign[idx], grp)
			}
		}
	}
	for idx, n := range seen {
		if n != 1 {
			return fmt.Errorf("index: input %d appears in %d groups", idx, n)
		}
	}
	return nil
}

// Grouper builds index groups over a store.
type Grouper interface {
	// Name identifies the strategy in traces and experiment tables.
	Name() string
	// Group partitions the store into k groups.
	Group(store corpus.Store, k int, r *rng.RNG) (*Groups, error)
}

// fromAssign builds a Groups from an assignment vector, preserving input
// order within each group.
func fromAssign(strategy string, assign []int, k int) *Groups {
	g := &Groups{
		Strategy: strategy,
		Assign:   assign,
		Members:  make([][]int, k),
	}
	for idx, grp := range assign {
		g.Members[grp] = append(g.Members[grp], idx)
	}
	for grp := range g.Members {
		if g.Members[grp] == nil {
			g.Members[grp] = []int{}
		}
	}
	return g
}

// KMeansGrouper clusters index-feature vectors with k-means — the paper's
// primary indexing strategy.
type KMeansGrouper struct {
	// Vectorizer produces the cheap index features to cluster on.
	Vectorizer Vectorizer
	// Config tunes the clustering; Config.K is overridden by the k passed
	// to Group.
	Config KMeansConfig
}

// Name implements Grouper.
func (g *KMeansGrouper) Name() string {
	return fmt.Sprintf("kmeans(%s)", g.Vectorizer.Name())
}

// Group implements Grouper.
func (g *KMeansGrouper) Group(store corpus.Store, k int, r *rng.RNG) (*Groups, error) {
	if k <= 0 {
		return nil, fmt.Errorf("index: k must be > 0, got %d", k)
	}
	start := time.Now()
	cfg := g.Config
	cfg.K = k
	cfg.Workers = parallel.Workers(cfg.Workers)
	// Vectorization is a pure per-input computation; fan it out with the
	// same worker bound the clustering uses (every built-in Vectorizer is
	// read-only once fitted).
	points := make([][]float64, store.Len())
	parallel.ForEach(cfg.Workers, store.Len(), func(i int) {
		points[i] = g.Vectorizer.Vectorize(store.Get(i))
	})
	res, err := KMeans(points, cfg, r)
	if err != nil {
		return nil, err
	}
	out := fromAssign(g.Name(), res.Assign, k)
	out.BuildTime = time.Since(start)
	return out, nil
}

// AttributeGrouper buckets inputs by a cheap surface attribute
// (Meta[Attr]); distinct values are hashed down to k groups when there are
// more values than groups. It models indexing on metadata that arrives
// free with the input (URL domain, camera ID, decade).
type AttributeGrouper struct {
	// Attr is the Meta key to bucket on.
	Attr string
}

// Name implements Grouper.
func (g *AttributeGrouper) Name() string { return fmt.Sprintf("attribute(%s)", g.Attr) }

// Group implements Grouper.
func (g *AttributeGrouper) Group(store corpus.Store, k int, r *rng.RNG) (*Groups, error) {
	if k <= 0 {
		return nil, fmt.Errorf("index: k must be > 0, got %d", k)
	}
	start := time.Now()
	// Map attribute values to group ids: the most frequent values get
	// dedicated groups; the tail shares hashed groups.
	counts := map[string]int{}
	for i := 0; i < store.Len(); i++ {
		counts[store.Get(i).Meta[g.Attr]]++
	}
	values := make([]string, 0, len(counts))
	for v := range counts {
		values = append(values, v)
	}
	sort.Slice(values, func(a, b int) bool {
		if counts[values[a]] != counts[values[b]] {
			return counts[values[a]] > counts[values[b]]
		}
		return values[a] < values[b]
	})
	valueGroup := map[string]int{}
	if len(values) <= k {
		// Few enough values: hash the whole set so all k groups are used
		// and each group holds whole values.
		for rank, v := range values {
			valueGroup[v] = rank % k
		}
	} else {
		// Dedicate k-1 groups to the most frequent values and send the
		// long tail to the final "other" group, keeping dedicated groups
		// pure.
		for rank, v := range values {
			if rank < k-1 {
				valueGroup[v] = rank
			} else {
				valueGroup[v] = k - 1
			}
		}
	}
	assign := make([]int, store.Len())
	for i := range assign {
		assign[i] = valueGroup[store.Get(i).Meta[g.Attr]]
	}
	out := fromAssign(g.Name(), assign, k)
	out.BuildTime = time.Since(start)
	return out, nil
}

// HashGrouper partitions by a hash of the input ID. The resulting groups
// are statistically identical, so the bandit has nothing to learn: this is
// the "uninformative index" ablation that bounds Zombie from below at the
// random-scan baseline.
type HashGrouper struct{}

// Name implements Grouper.
func (HashGrouper) Name() string { return "hash" }

// Group implements Grouper.
func (HashGrouper) Group(store corpus.Store, k int, r *rng.RNG) (*Groups, error) {
	if k <= 0 {
		return nil, fmt.Errorf("index: k must be > 0, got %d", k)
	}
	start := time.Now()
	assign := make([]int, store.Len())
	for i := range assign {
		assign[i] = HashToken(store.Get(i).ID, k)
	}
	out := fromAssign("hash", assign, k)
	out.BuildTime = time.Since(start)
	return out, nil
}

// RandomGrouper deals inputs into k equal-size groups in shuffled order —
// like HashGrouper an uninformative baseline, but with exactly balanced
// group sizes.
type RandomGrouper struct{}

// Name implements Grouper.
func (RandomGrouper) Name() string { return "random" }

// Group implements Grouper.
func (RandomGrouper) Group(store corpus.Store, k int, r *rng.RNG) (*Groups, error) {
	if k <= 0 {
		return nil, fmt.Errorf("index: k must be > 0, got %d", k)
	}
	start := time.Now()
	perm := r.Perm(store.Len())
	assign := make([]int, store.Len())
	for pos, idx := range perm {
		assign[idx] = pos % k
	}
	out := fromAssign("random", assign, k)
	out.BuildTime = time.Since(start)
	return out, nil
}

// OracleGrouper groups by ground-truth usefulness (relevant vs not),
// splitting each side round-robin across the k groups' halves. It is the
// skyline no real index can beat and appears only in ablation experiments;
// it reads Truth, which real groupers must never do.
type OracleGrouper struct{}

// Name implements Grouper.
func (OracleGrouper) Name() string { return "oracle" }

// Group implements Grouper.
func (OracleGrouper) Group(store corpus.Store, k int, r *rng.RNG) (*Groups, error) {
	if k < 2 {
		return nil, fmt.Errorf("index: oracle grouper needs k >= 2, got %d", k)
	}
	start := time.Now()
	relGroups := k / 2
	assign := make([]int, store.Len())
	relSeen, irrSeen := 0, 0
	for i := 0; i < store.Len(); i++ {
		if store.Get(i).Truth.Relevant {
			assign[i] = relSeen % relGroups
			relSeen++
		} else {
			assign[i] = relGroups + irrSeen%(k-relGroups)
			irrSeen++
		}
	}
	out := fromAssign("oracle", assign, k)
	out.BuildTime = time.Since(start)
	return out, nil
}

// NamedGrouper returns the grouper a built-in strategy name selects:
// kmeans-text, kmeans-tfidf, kmeans-numeric, lsh-text, lsh-numeric,
// attribute:<key>, hash, random or oracle. Strategies with fitted
// vectorizers (tf-idf weights, numeric standardization) fit them on store
// here; the numeric ones take their dimensionality from the store's first
// numeric input. cfg tunes every k-means strategy, and its Workers bounds
// the tf-idf fit as well.
func NamedGrouper(store corpus.Store, strategy string, cfg KMeansConfig) (Grouper, error) {
	if key, ok := strings.CutPrefix(strategy, "attribute:"); ok && key != "" {
		return &AttributeGrouper{Attr: key}, nil
	}
	switch strategy {
	case "kmeans-text":
		return &KMeansGrouper{Vectorizer: NewHashedText(256), Config: cfg}, nil
	case "kmeans-tfidf":
		tfidf := NewTFIDF(256)
		tfidf.FitParallel(store, cfg.Workers)
		return &KMeansGrouper{Vectorizer: tfidf, Config: cfg}, nil
	case "kmeans-numeric":
		v, err := fittedNumeric(store, strategy)
		if err != nil {
			return nil, err
		}
		return &KMeansGrouper{Vectorizer: v, Config: cfg}, nil
	case "lsh-text":
		return &LSHGrouper{Vectorizer: NewHashedText(256)}, nil
	case "lsh-numeric":
		v, err := fittedNumeric(store, strategy)
		if err != nil {
			return nil, err
		}
		return &LSHGrouper{Vectorizer: v}, nil
	case "hash":
		return HashGrouper{}, nil
	case "random":
		return RandomGrouper{}, nil
	case "oracle":
		return OracleGrouper{}, nil
	case "attribute", "attribute:":
		return nil, fmt.Errorf("index: attribute strategy needs a key, e.g. %q", "attribute:category")
	}
	return nil, fmt.Errorf("index: unknown index strategy %q", strategy)
}

// fittedNumeric is a standardized numeric vectorizer over the
// dimensionality of the store's first numeric input.
func fittedNumeric(store corpus.Store, strategy string) (*Numeric, error) {
	for i := 0; i < store.Len(); i++ {
		if in := store.Get(i); in.Kind == corpus.NumericKind && len(in.Values) > 0 {
			v := NewNumeric(len(in.Values))
			v.FitStandardize(store)
			return v, nil
		}
	}
	return nil, fmt.Errorf("index: %s needs numeric inputs", strategy)
}

// Save persists the groups to path with encoding/gob.
func (g *Groups) Save(path string) error {
	return writeAtomic(path, func(w io.Writer) error { return gob.NewEncoder(w).Encode(g) })
}

// writeAtomic writes to a temporary file beside path, syncs it and renames
// it over path, so a crash or a failed write leaves the previous file —
// never a truncated one.
func writeAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("index: create %s: %w", tmp, err)
	}
	if err = write(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) // best effort: the error worth reporting is err
		return fmt.Errorf("index: save %s: %w", path, err)
	}
	return nil
}

// LoadGroups reads groups persisted by Save and validates them.
func LoadGroups(path string) (*Groups, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: open %s: %w", path, err)
	}
	defer f.Close()
	g := new(Groups)
	if err := gob.NewDecoder(f).Decode(g); err != nil {
		return nil, fmt.Errorf("index: decode groups: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("index: loaded groups invalid: %w", err)
	}
	return g, nil
}
