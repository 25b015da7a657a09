package corpus

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestDecodeJSONLTolerantSkipsCorruptLines: good lines survive, bad lines
// are reported with their 1-based line numbers, order preserved.
func TestDecodeJSONLTolerantSkipsCorruptLines(t *testing.T) {
	src := strings.Join([]string{
		`{"id":"a","text":"one"}`,
		`{garbage`,
		``,
		`{"id":"b","text":"two"}`,
		`not json at all`,
		`{"id":"c","text":"three"}`,
	}, "\n")
	inputs, skipped, err := DecodeJSONLTolerant(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(inputs) != 3 || inputs[0].ID != "a" || inputs[1].ID != "b" || inputs[2].ID != "c" {
		t.Fatalf("inputs = %v", inputs)
	}
	if len(skipped) != 2 || skipped[0].Line != 2 || skipped[1].Line != 5 {
		t.Fatalf("skipped = %+v", skipped)
	}
	for _, s := range skipped {
		if s.Reason == "" {
			t.Fatalf("skip without reason: %+v", s)
		}
	}
}

// TestDecodeJSONLTolerantToleratesTornTail: a half-written final line —
// what a crashed writer leaves — costs one skip, not the corpus.
func TestDecodeJSONLTolerantToleratesTornTail(t *testing.T) {
	src := `{"id":"a","text":"one"}` + "\n" + `{"id":"b","tex`
	inputs, skipped, err := DecodeJSONLTolerant(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(inputs) != 1 || inputs[0].ID != "a" {
		t.Fatalf("inputs = %v", inputs)
	}
	if len(skipped) != 1 || skipped[0].Line != 2 {
		t.Fatalf("skipped = %+v", skipped)
	}
}

// TestDecodeJSONLTolerantRejectsAllCorrupt: zero survivors is a loud
// failure — an all-corrupt file is a wrong path, not a messy corpus.
func TestDecodeJSONLTolerantRejectsAllCorrupt(t *testing.T) {
	_, skipped, err := DecodeJSONLTolerant(strings.NewReader("junk\nmore junk\n"))
	if err == nil || !strings.Contains(err.Error(), "no input survived") {
		t.Fatalf("err = %v", err)
	}
	if len(skipped) != 2 {
		t.Fatalf("skipped = %+v", skipped)
	}
}

// TestDecodeJSONLTolerantEmptyReader: an empty file, or one of blank
// lines only, decodes to an empty corpus without error (nothing was
// corrupt), matching strict DecodeJSONL.
func TestDecodeJSONLTolerantEmptyReader(t *testing.T) {
	for _, src := range []string{"", "\n\n"} {
		inputs, skipped, err := DecodeJSONLTolerant(strings.NewReader(src))
		if err != nil || len(inputs) != 0 || len(skipped) != 0 {
			t.Fatalf("%q: inputs=%v skipped=%v err=%v", src, inputs, skipped, err)
		}
	}
}

// TestReadJSONLTolerantRoundTrip: a file written by WriteJSONL with a torn
// tail appended loads every original record through the tolerant reader.
func TestReadJSONLTolerantRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.jsonl")
	orig := []*Input{
		{ID: "x", Text: "alpha"},
		{ID: "y", Text: "beta"},
	}
	if err := WriteJSONL(path, orig); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"z","te`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, err := ReadJSONL(path); err == nil {
		t.Fatal("strict reader accepted the torn tail")
	}
	inputs, skipped, err := ReadJSONLTolerant(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(inputs) != 2 || inputs[0].ID != "x" || inputs[1].ID != "y" {
		t.Fatalf("inputs = %v", inputs)
	}
	if len(skipped) != 1 {
		t.Fatalf("skipped = %+v", skipped)
	}
}

// FuzzDecodeJSONL: neither decode panics on arbitrary bytes, the strict
// decode fails exactly when the tolerant one skips a line, and otherwise
// both return the same inputs.
func FuzzDecodeJSONL(f *testing.F) {
	f.Add([]byte(`{"id":"a","text":"one"}` + "\n\n" + `{"id":"b","kind":1,"values":[1,2.5]}`))
	f.Add([]byte(`{"id":"a","text":"one"}` + "\n" + `{"id":"b","tex`))
	f.Add([]byte("junk\n{\"id\":\"c\",\"meta\":{\"k\":\"v\"},\"truth\":{}}\n"))
	f.Add([]byte("\n\n"))
	f.Add([]byte("null\n[]\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		strict, strictErr := DecodeJSONL(bytes.NewReader(data))
		tolerant, skipped, tolerantErr := DecodeJSONLTolerant(bytes.NewReader(data))
		if (strictErr != nil) != (len(skipped) > 0) {
			t.Fatalf("strict error %v with %d lines skipped", strictErr, len(skipped))
		}
		if strictErr != nil {
			if want := fmt.Sprintf("corpus: line %d: ", skipped[0].Line); !strings.HasPrefix(strictErr.Error(), want) {
				t.Fatalf("strict error %q does not name the first skipped line %d", strictErr, skipped[0].Line)
			}
			return
		}
		if tolerantErr != nil || !reflect.DeepEqual(strict, tolerant) {
			t.Fatalf("strict decoded %d inputs, tolerant %d (error %v), or they differ", len(strict), len(tolerant), tolerantErr)
		}
	})
}
