// Package recipe models feature code the way an engineering session
// actually produces it: as a named DAG of parts, each part one
// fingerprinted featurepipe.FeatureFunc, compiled into a single
// CompositeFeature the engine can run. A Recipe is validated at
// registration — duplicate names, dangling dependencies, cycles and
// class-count mismatches fail before anything executes — and exposes
// per-part fingerprints so a session can diff two versions and know
// exactly which extractions the part-level cache will reuse.
//
// On top of recipes, Session (session.go) is the iterative workspace the
// paper's end-to-end numbers are about: submit v1, edit one part, submit
// v2 — unchanged parts hit the extraction cache and the new bandit run
// warm-starts from the previous version's arm statistics.
package recipe

import (
	"fmt"
	"sort"

	"zombie/internal/corpus"
	"zombie/internal/featurepipe"
)

// Part declares one node of a recipe DAG: a named instance of a built-in
// feature kind, plus the parts it depends on. Dependencies order the
// compiled composite (a part's vector block always comes after its
// dependencies'); they do not change what a part extracts.
type Part struct {
	// Name identifies the part inside the recipe; unique, non-empty.
	Name string `json:"name"`
	// Kind names the built-in feature family: "wiki", "song" or "image".
	Kind string `json:"kind"`
	// Version selects the feature-code version within the kind (wiki 1-8,
	// song 1-2, image 1-3). 0 means version 1.
	Version int `json:"version,omitempty"`
	// Deps lists part names that must precede this part.
	Deps []string `json:"deps,omitempty"`
}

// buildPart instantiates the feature function a part declares. Song and
// image parts are built against the default synthetic-corpus shapes, the
// same ones the workload layer uses.
func buildPart(p Part) (featurepipe.FeatureFunc, error) {
	v := p.Version
	if v == 0 {
		v = 1
	}
	switch p.Kind {
	case "wiki":
		if v < 1 || v > 8 {
			return nil, fmt.Errorf("recipe: part %s: wiki version %d out of range [1,8]", p.Name, v)
		}
		return featurepipe.NewWikiFeature(v), nil
	case "song":
		if v < 1 || v > 2 {
			return nil, fmt.Errorf("recipe: part %s: song version %d out of range [1,2]", p.Name, v)
		}
		return featurepipe.NewSongFeature(v, corpus.DefaultSongConfig()), nil
	case "image":
		if v < 1 || v > 3 {
			return nil, fmt.Errorf("recipe: part %s: image version %d out of range [1,3]", p.Name, v)
		}
		return featurepipe.NewImageFeature(v, corpus.DefaultImageConfig()), nil
	default:
		return nil, fmt.Errorf("recipe: part %s: unknown kind %q (known: wiki, song, image)", p.Name, p.Kind)
	}
}

// Recipe is a validated, compiled feature-recipe DAG. Parts are stored in
// deterministic topological order (dependencies first, ties broken by
// name), so two recipes declaring the same parts in any order compile to
// the same composite, fingerprint and all.
type Recipe struct {
	name    string
	parts   []Part
	funcs   []featurepipe.FeatureFunc
	feature featurepipe.FeatureFunc
}

// New validates the parts as a DAG and compiles the recipe. Registration
// fails on an empty or duplicate part name, a dependency on a part that
// does not exist (dangling), a dependency cycle, an unknown kind/version,
// or parts that disagree on class count (a composite cannot mix label
// spaces).
func New(name string, parts []Part) (*Recipe, error) {
	if name == "" {
		return nil, fmt.Errorf("recipe: recipe needs a name")
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("recipe: recipe %s has no parts", name)
	}
	byName := make(map[string]Part, len(parts))
	for _, p := range parts {
		if p.Name == "" {
			return nil, fmt.Errorf("recipe: recipe %s has a part with no name", name)
		}
		if _, dup := byName[p.Name]; dup {
			return nil, fmt.Errorf("recipe: recipe %s: duplicate part %q", name, p.Name)
		}
		byName[p.Name] = p
	}
	for _, p := range parts {
		for _, d := range p.Deps {
			if d == p.Name {
				return nil, fmt.Errorf("recipe: part %q depends on itself", p.Name)
			}
			if _, ok := byName[d]; !ok {
				return nil, fmt.Errorf("recipe: part %q depends on unknown part %q", p.Name, d)
			}
		}
	}
	ordered, err := topoSort(name, parts)
	if err != nil {
		return nil, err
	}
	r := &Recipe{name: name, parts: ordered}
	classes := 0
	for _, p := range ordered {
		f, err := buildPart(p)
		if err != nil {
			return nil, err
		}
		if f.Dim() <= 0 {
			return nil, fmt.Errorf("recipe: part %q declares dim %d", p.Name, f.Dim())
		}
		if classes == 0 {
			classes = f.NumClasses()
		} else if f.NumClasses() != classes {
			return nil, fmt.Errorf("recipe: part %q has %d classes, other parts have %d — a recipe cannot mix label spaces",
				p.Name, f.NumClasses(), classes)
		}
		r.funcs = append(r.funcs, f)
	}
	if len(r.funcs) == 1 {
		// A single-part recipe is just that part; CompositeFeature requires
		// two or more.
		r.feature = r.funcs[0]
	} else {
		comp, err := featurepipe.NewCompositeFeature(name, r.funcs...)
		if err != nil {
			return nil, fmt.Errorf("recipe: compile %s: %w", name, err)
		}
		r.feature = comp
	}
	return r, nil
}

// topoSort orders parts dependencies-first with deterministic name-order
// tie-breaking (Kahn's algorithm over a ready min-heap, here a sorted
// scan — recipes hold a handful of parts). A cycle reports the parts left
// unordered.
func topoSort(recipeName string, parts []Part) ([]Part, error) {
	byName := make(map[string]Part, len(parts))
	indeg := make(map[string]int, len(parts))
	dependents := make(map[string][]string, len(parts))
	for _, p := range parts {
		byName[p.Name] = p
		indeg[p.Name] += 0
	}
	for _, p := range parts {
		for _, d := range p.Deps {
			indeg[p.Name]++
			dependents[d] = append(dependents[d], p.Name)
		}
	}
	var ready []string
	for n, d := range indeg {
		if d == 0 {
			ready = append(ready, n)
		}
	}
	sort.Strings(ready)
	out := make([]Part, 0, len(parts))
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		out = append(out, byName[n])
		changed := false
		for _, dep := range dependents[n] {
			indeg[dep]--
			if indeg[dep] == 0 {
				ready = append(ready, dep)
				changed = true
			}
		}
		if changed {
			sort.Strings(ready)
		}
	}
	if len(out) != len(parts) {
		var stuck []string
		for n, d := range indeg {
			if d > 0 {
				stuck = append(stuck, n)
			}
		}
		sort.Strings(stuck)
		return nil, fmt.Errorf("recipe: recipe %s has a dependency cycle involving %v", recipeName, stuck)
	}
	return out, nil
}

// Name returns the recipe's name.
func (r *Recipe) Name() string { return r.name }

// Parts returns the parts in compiled (topological) order.
func (r *Recipe) Parts() []Part { return append([]Part(nil), r.parts...) }

// Feature returns the compiled feature function: the lone part for a
// single-part recipe, a CompositeFeature otherwise. Every part flows
// through the part-level extraction cache when the engine runs it cached.
func (r *Recipe) Feature() featurepipe.FeatureFunc { return r.feature }

// Fingerprint returns the compiled feature's content fingerprint.
func (r *Recipe) Fingerprint() string { return featurepipe.FingerprintOf(r.feature) }

// PartFingerprints maps part name → the part's extraction fingerprint —
// the unit of cache reuse and the thing Diff compares across versions.
func (r *Recipe) PartFingerprints() map[string]string {
	out := make(map[string]string, len(r.parts))
	for i, p := range r.parts {
		out[p.Name] = featurepipe.FingerprintOf(r.funcs[i])
	}
	return out
}

// Diff summarizes how this recipe differs from a previous version. Part
// names are matched first; a name present in both with a different
// fingerprint is Changed (the edited part), same fingerprint Unchanged.
// SharedParts counts this recipe's parts whose fingerprint appeared
// anywhere in prev — the parts whose extractions the part-level cache
// serves for free even if the part was renamed.
type Diff struct {
	Added     []string `json:"added,omitempty"`
	Removed   []string `json:"removed,omitempty"`
	Changed   []string `json:"changed,omitempty"`
	Unchanged []string `json:"unchanged,omitempty"`
	// SharedParts / TotalParts are the cache-reuse prediction: how many of
	// the recipe's parts were already extracted under a previous version.
	SharedParts int `json:"shared_parts"`
	TotalParts  int `json:"total_parts"`
}

// DiffFrom computes the Diff of r against prev. A nil prev means
// everything is new.
func (r *Recipe) DiffFrom(prev *Recipe) Diff {
	d := Diff{TotalParts: len(r.parts)}
	if prev == nil {
		for _, p := range r.parts {
			d.Added = append(d.Added, p.Name)
		}
		sort.Strings(d.Added)
		return d
	}
	cur, old := r.PartFingerprints(), prev.PartFingerprints()
	oldFPs := make(map[string]int, len(old))
	for _, fp := range old {
		oldFPs[fp]++
	}
	for name, fp := range cur {
		prevFP, existed := old[name]
		switch {
		case !existed:
			d.Added = append(d.Added, name)
		case prevFP == fp:
			d.Unchanged = append(d.Unchanged, name)
		default:
			d.Changed = append(d.Changed, name)
		}
		if oldFPs[fp] > 0 {
			oldFPs[fp]--
			d.SharedParts++
		}
	}
	for name := range old {
		if _, still := cur[name]; !still {
			d.Removed = append(d.Removed, name)
		}
	}
	sort.Strings(d.Added)
	sort.Strings(d.Removed)
	sort.Strings(d.Changed)
	sort.Strings(d.Unchanged)
	return d
}
