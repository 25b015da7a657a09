package recipe

import (
	"reflect"
	"strings"
	"testing"

	"zombie/internal/featurepipe"
)

func wikiParts() []Part {
	return []Part{
		{Name: "base", Kind: "wiki", Version: 2},
		{Name: "mid", Kind: "wiki", Version: 4, Deps: []string{"base"}},
		{Name: "top", Kind: "wiki", Version: 5, Deps: []string{"mid"}},
	}
}

func TestRecipeCompile(t *testing.T) {
	r, err := New("rec", wikiParts())
	if err != nil {
		t.Fatal(err)
	}
	f := r.Feature()
	if f.Name() != "rec" {
		t.Errorf("compiled name %q, want rec", f.Name())
	}
	// wiki-v2 (512) + wiki-v4 (4096) + wiki-v5 (4096)
	if f.Dim() <= 0 || f.NumClasses() != 2 {
		t.Errorf("compiled dim %d classes %d", f.Dim(), f.NumClasses())
	}
	fps := r.PartFingerprints()
	if len(fps) != 3 {
		t.Fatalf("PartFingerprints has %d entries, want 3", len(fps))
	}
	for name, fp := range fps {
		if fp == "" {
			t.Errorf("part %s has empty fingerprint", name)
		}
	}
}

func TestRecipeSinglePart(t *testing.T) {
	r, err := New("solo", []Part{{Name: "only", Kind: "wiki", Version: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Feature().Name() != "wiki-v3" {
		t.Errorf("single-part recipe compiled to %q, want the part itself", r.Feature().Name())
	}
}

// TestRecipeDeterministicOrder asserts declaration order does not matter:
// the same part set compiles to the same composite.
func TestRecipeDeterministicOrder(t *testing.T) {
	a, err := New("rec", wikiParts())
	if err != nil {
		t.Fatal(err)
	}
	shuffled := []Part{wikiParts()[2], wikiParts()[0], wikiParts()[1]}
	b, err := New("rec", shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("same parts, different declaration order → different fingerprint")
	}
	if !reflect.DeepEqual(a.Parts(), b.Parts()) {
		t.Fatal("same parts, different declaration order → different compiled order")
	}
}

func TestRecipeValidation(t *testing.T) {
	cases := []struct {
		name  string
		parts []Part
		want  string
	}{
		{"empty", nil, "no parts"},
		{"unnamed", []Part{{Kind: "wiki"}}, "no name"},
		{"dup", []Part{{Name: "a", Kind: "wiki"}, {Name: "a", Kind: "wiki", Version: 2}}, "duplicate"},
		{"dangling", []Part{{Name: "a", Kind: "wiki", Deps: []string{"ghost"}}}, "unknown part"},
		{"self", []Part{{Name: "a", Kind: "wiki", Deps: []string{"a"}}}, "depends on itself"},
		{"cycle", []Part{
			{Name: "a", Kind: "wiki", Deps: []string{"b"}},
			{Name: "b", Kind: "wiki", Version: 2, Deps: []string{"a"}},
		}, "cycle"},
		{"kind", []Part{{Name: "a", Kind: "video"}}, "unknown kind"},
		{"version", []Part{{Name: "a", Kind: "wiki", Version: 9}}, "out of range"},
		{"classes", []Part{
			{Name: "a", Kind: "wiki"},
			{Name: "b", Kind: "song"},
		}, "classes"},
	}
	for _, c := range cases {
		_, err := New("rec", c.parts)
		if err == nil {
			t.Errorf("%s: want error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestRecipeDiff(t *testing.T) {
	v1, err := New("rec", wikiParts())
	if err != nil {
		t.Fatal(err)
	}
	edited := wikiParts()
	edited[2].Version = 6 // edit one part
	edited = append(edited, Part{Name: "extra", Kind: "wiki", Version: 7})
	v2, err := New("rec", edited)
	if err != nil {
		t.Fatal(err)
	}
	d := v2.DiffFrom(v1)
	if !reflect.DeepEqual(d.Changed, []string{"top"}) {
		t.Errorf("Changed = %v, want [top]", d.Changed)
	}
	if !reflect.DeepEqual(d.Unchanged, []string{"base", "mid"}) {
		t.Errorf("Unchanged = %v, want [base mid]", d.Unchanged)
	}
	if !reflect.DeepEqual(d.Added, []string{"extra"}) {
		t.Errorf("Added = %v, want [extra]", d.Added)
	}
	if len(d.Removed) != 0 {
		t.Errorf("Removed = %v, want none", d.Removed)
	}
	if d.SharedParts != 2 || d.TotalParts != 4 {
		t.Errorf("SharedParts/TotalParts = %d/%d, want 2/4", d.SharedParts, d.TotalParts)
	}
	// v1 against nothing: everything added.
	d0 := v1.DiffFrom(nil)
	if len(d0.Added) != 3 || d0.SharedParts != 0 {
		t.Errorf("DiffFrom(nil) = %+v", d0)
	}
	// A renamed but byte-identical part still counts as shared.
	renamed := wikiParts()
	renamed[0].Name = "renamed-base"
	renamed[1].Deps = []string{"renamed-base"}
	v3, err := New("rec", renamed)
	if err != nil {
		t.Fatal(err)
	}
	dr := v3.DiffFrom(v1)
	if dr.SharedParts != 3 {
		t.Errorf("renamed part: SharedParts = %d, want 3", dr.SharedParts)
	}
}

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpecBytes([]byte(`{
		"name": "rec",
		"parts": [
			{"name": "base", "kind": "wiki", "version": 2},
			{"name": "top", "kind": "wiki", "version": 5, "deps": ["base"]}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	r, err := spec.Recipe()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Parts()) != 2 {
		t.Fatalf("parsed %d parts, want 2", len(r.Parts()))
	}
	// Unknown fields must be rejected, at both levels.
	if _, err := ParseSpecBytes([]byte(`{"name": "rec", "parst": []}`)); err == nil {
		t.Error("typoed top-level field: want error")
	}
	if _, err := ParseSpecBytes([]byte(`{"name": "rec", "parts": [{"name":"a","kind":"wiki","verison":2}]}`)); err == nil {
		t.Error("typoed part field: want error")
	}
	if _, err := ParseSpecBytes([]byte(`{"name":"rec","parts":[]} {"trailing":true}`)); err == nil {
		t.Error("trailing document: want error")
	}
}

// TestWikiVersions pins the standard session's recipes: eight single-part
// recipes that compile to the wiki feature of the same version, so the
// run labels and fingerprints are those of featurepipe.NewWikiFeature.
func TestWikiVersions(t *testing.T) {
	rs := WikiVersions()
	if len(rs) != 8 {
		t.Fatalf("%d versions, want 8", len(rs))
	}
	for i, r := range rs {
		want := featurepipe.NewWikiFeature(i + 1)
		if r.Name() != want.Name() || r.Feature().Name() != want.Name() || r.Fingerprint() != featurepipe.FingerprintOf(want) {
			t.Errorf("version %d: recipe %s compiles to %s (%s), want %s (%s)", i+1,
				r.Name(), r.Feature().Name(), r.Fingerprint(), want.Name(), featurepipe.FingerprintOf(want))
		}
	}
}
