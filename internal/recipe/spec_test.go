package recipe

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzRecipeSpec holds the spec decoder to two properties: ParseSpecBytes
// never panics, and a spec that compiles survives a JSON round trip —
// marshalling it and parsing it back compiles to the same recipe
// fingerprint and the same per-part fingerprints.
func FuzzRecipeSpec(f *testing.F) {
	for _, seed := range []string{
		`{"name":"rec","parts":[{"name":"base","kind":"wiki","version":2},{"name":"mid","kind":"wiki","version":4,"deps":["base"]}]}`,
		`{"name":"wiki-v3","parts":[{"name":"wiki","kind":"wiki","version":3}]}`,
		`{"name":"s","parts":[{"name":"a","kind":"song"},{"name":"b","kind":"song","version":2,"deps":["a"]}]}`,
		`{"name":"img","parts":[{"name":"a","kind":"image","version":3}]}`,
		`{"name":"cyc","parts":[{"name":"a","kind":"wiki","deps":["b"]},{"name":"b","kind":"wiki","deps":["a"]}]}`,
		`{"name":"mix","parts":[{"name":"a","kind":"wiki"},{"name":"b","kind":"song"}]}`,
		`{"name":"x","parts":[],"bogus":1}`,
		`{"name":"x"} {}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpecBytes(data)
		if err != nil {
			return
		}
		r, err := spec.Recipe()
		if err != nil {
			return
		}
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal a compiling spec: %v", err)
		}
		again, err := ParseSpecBytes(b)
		if err != nil {
			t.Fatalf("re-parse %s: %v", b, err)
		}
		r2, err := again.Recipe()
		if err != nil {
			t.Fatalf("re-compile %s: %v", b, err)
		}
		if r.Fingerprint() != r2.Fingerprint() || !reflect.DeepEqual(r.PartFingerprints(), r2.PartFingerprints()) {
			t.Fatalf("round trip through %s changed the fingerprints:\n%s %v\n%s %v",
				b, r.Fingerprint(), r.PartFingerprints(), r2.Fingerprint(), r2.PartFingerprints())
		}
	})
}
