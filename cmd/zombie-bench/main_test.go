package main

import (
	"bytes"
	"strings"
	"testing"

	"zombie/internal/experiments"
)

// tiny is the smallest configuration the harness accepts.
var tiny = experiments.Config{Scale: 0.01, Seed: 99, Parallel: 2}

// TestRunParsesIDs: an id list runs its experiments in the order given,
// whatever its case and spacing; "all" in any case runs every experiment
// in registry order; an unknown id fails before anything runs and names
// the known ids.
func TestRunParsesIDs(t *testing.T) {
	var want bytes.Buffer
	for _, id := range []string{"T1", "F5"} {
		if err := experiments.Run(id, tiny, &want); err != nil {
			t.Fatal(err)
		}
	}
	for _, exp := range []string{"T1,F5", "t1,f5", " t1 , F5 ,", "t1,,f5"} {
		var got bytes.Buffer
		if err := run(tiny, exp, &got); err != nil {
			t.Fatalf("%q: %v", exp, err)
		}
		if got.String() != want.String() {
			t.Errorf("%q printed\n%s\nwant\n%s", exp, got.String(), want.String())
		}
	}

	var all bytes.Buffer
	if err := run(tiny, "All", &all); err != nil {
		t.Fatal(err)
	}
	rest := all.String()
	for _, id := range experiments.IDs() {
		i := strings.Index(rest, "=== "+id+":")
		if i < 0 {
			t.Fatalf("-exp All: %s missing or out of registry order", id)
		}
		rest = rest[i:]
	}

	var out bytes.Buffer
	err := run(tiny, "t1,nope", &out)
	if err == nil {
		t.Fatal("unknown id accepted")
	}
	if !strings.Contains(err.Error(), `"NOPE"`) || !strings.Contains(err.Error(), strings.Join(experiments.IDs(), ", ")) {
		t.Errorf("error %q does not name the id and the known list", err)
	}
	if out.Len() != 0 {
		t.Errorf("experiments ran before the unknown id failed:\n%s", out.String())
	}
}

// TestListNamesEveryExperiment: -list prints one line per registry id,
// in order, each with a title.
func TestListNamesEveryExperiment(t *testing.T) {
	var buf bytes.Buffer
	printList(&buf)
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	ids := experiments.IDs()
	if len(lines) != len(ids) {
		t.Fatalf("-list printed %d lines for %d experiments:\n%s", len(lines), len(ids), buf.String())
	}
	for i, id := range ids {
		fields := strings.Fields(lines[i])
		if len(fields) < 2 || fields[0] != id {
			t.Errorf("line %d = %q, want %s and a title", i, lines[i], id)
		}
	}
}
