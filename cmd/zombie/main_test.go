package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"zombie/internal/corpus"
	"zombie/internal/rng"
)

// invoke runs the command in-process and returns what it wrote.
func invoke(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errs bytes.Buffer
	if err := run(args, &out, &errs); err != nil {
		t.Fatalf("zombie %s: %v\n%s", strings.Join(args, " "), err, errs.String())
	}
	return out.String(), errs.String()
}

// without drops the lines that start with any of the prefixes — the
// filterable-prefix convention of the built/cache:/dist: lines, which
// carry wall time and counters that legitimately differ between runs
// whose curves must not.
func without(out string, prefixes ...string) string {
	var kept []string
next:
	for _, line := range strings.SplitAfter(out, "\n") {
		for _, p := range prefixes {
			if strings.HasPrefix(line, p) {
				continue next
			}
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "")
}

// TestDeterminismContracts holds the CLI's end-to-end determinism
// contracts: each cell runs the command twice, a then b, and requires
// identical stdout once the cell's volatile lines are stripped, plus
// whatever check says about b.
func TestDeterminismContracts(t *testing.T) {
	gen := corpus.DefaultWikiConfig()
	gen.N = 800
	ins, err := corpus.GenerateWiki(gen, rng.New(20160516))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	wiki := filepath.Join(dir, "wiki.jsonl")
	if err := corpus.WriteJSONL(wiki, ins); err != nil {
		t.Fatal(err)
	}
	recipe := filepath.Join(dir, "recipe.json")
	if err := os.WriteFile(recipe, []byte(`{"name":"smoke","parts":[{"name":"base","kind":"wiki","version":2},`+
		`{"name":"mid","kind":"wiki","version":4,"deps":["base"]},{"name":"top","kind":"wiki","version":6,"deps":["mid"]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	scan := []string{"-corpus", wiki, "-task", "wiki", "-mode", "scan-sequential", "-max", "400"}
	zom := []string{"-corpus", wiki, "-task", "wiki", "-max", "200"}
	with := func(base []string, extra ...string) []string {
		return append(append([]string(nil), base...), extra...)
	}
	chaos := with(scan, "-faults", "extract:err=0.04,panic=0.04;corpus.read:err=0.03", "-fault-seed", "7")
	rec := []string{"-corpus", wiki, "-task", "wiki", "-recipe", recipe, "-max", "150"}
	volatile := []string{"built ", "dist:", "cache:"}

	cells := []struct {
		name  string
		a, b  []string
		strip []string
		check func(t *testing.T, stdout, stderr string)
	}{
		{
			name: "cache cold == warm", strip: volatile,
			a: with(scan, "-cache-dir", filepath.Join(dir, "cache")),
			b: with(scan, "-cache-dir", filepath.Join(dir, "cache")),
			check: func(t *testing.T, stdout, _ string) {
				if !regexp.MustCompile(`(?m)^cache: hits=[1-9]`).MatchString(stdout) {
					t.Errorf("warm run served no cache hits:\n%s", stdout)
				}
			},
		},
		{
			name: "same-seed faults replay", a: chaos, b: chaos,
			check: func(t *testing.T, stdout, _ string) {
				if strings.Contains(stdout, "stop=failed") {
					t.Errorf("run degraded to stop=failed under the smoke fault rates:\n%s", stdout)
				}
				if n := strings.Count("\n"+stdout, "\nquarantine:"); n < 20 {
					t.Errorf("%d quarantine lines, want >= 20 (5%% of 400)", n)
				}
			},
		},
		{
			name: "failing disk cache demotes == cache off", strip: volatile,
			a: scan,
			b: with(scan, "-cache-dir", filepath.Join(dir, "chaoscache"),
				"-faults", "cache.read:err=1;cache.write:err=1", "-fault-seed", "7"),
			check: func(t *testing.T, stdout, _ string) {
				if !strings.Contains(stdout, "demoted=true") {
					t.Errorf("always-failing disk cache did not demote:\n%s", stdout)
				}
			},
		},
		{
			name: "recipe replays", strip: volatile, a: rec, b: rec,
			check: func(t *testing.T, stdout, _ string) {
				if n := strings.Count("\n"+stdout, "\nrecipe: part="); n != 3 {
					t.Errorf("%d recipe: part= lines, want 3:\n%s", n, stdout)
				}
			},
		},
		{name: "empty -mode == zombie", a: zom, b: with(zom, "-mode", ""), strip: []string{"built "},
			check: func(t *testing.T, stdout, _ string) {
				if !strings.HasPrefix(stdout, "built ") {
					t.Errorf("empty -mode built no index:\n%s", stdout)
				}
			}},
		{name: "batch 8 replays", strip: volatile, a: with(zom, "-batch", "8"), b: with(zom, "-batch", "8")},
		{name: "batch 8 == batch 8 over 2 shards", strip: volatile,
			a: with(zom, "-batch", "8"), b: with(zom, "-batch", "8", "-shards", "2")},
		{name: "shards 1 == single-process", strip: volatile, a: with(zom, "-shards", "0"), b: with(zom, "-shards", "1")},
		{
			name: "shards 4 == single-process", strip: volatile,
			a: with(zom, "-shards", "0"), b: with(zom, "-shards", "4"),
			check: func(t *testing.T, stdout, stderr string) {
				if strings.Count("\n"+stdout, "\ndist:") != 4 {
					t.Errorf("want one dist: line per shard:\n%s", stdout)
				}
				if !strings.Contains(stderr, "rpc_ms=") {
					t.Errorf("run finished record omits the rpc phase:\n%s", stderr)
				}
			},
		},
	}
	// Flag combinations one of the flags would silently ignore are refused.
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"sharded oracle rejected", with(zom, "-mode", "oracle", "-shards", "2"), "requires mode zombie"},
		{"sharded session rejected", with(zom, "-session", "-shards", "2"), "-shards and -session are mutually exclusive"},
		{"oracle session rejected", with(zom, "-session", "-mode", "oracle"), "-mode oracle and -session are mutually exclusive"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := run(c.args, new(bytes.Buffer), new(bytes.Buffer)); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("zombie %s: err = %v, want %q", strings.Join(c.args, " "), err, c.want)
			}
		})
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			a, _ := invoke(t, c.a...)
			b, bErr := invoke(t, c.b...)
			if fa, fb := without(a, c.strip...), without(b, c.strip...); fa != fb {
				t.Errorf("outputs differ\n--- a: %s\n%s--- b: %s\n%s",
					strings.Join(c.a, " "), fa, strings.Join(c.b, " "), fb)
			}
			if !strings.Contains(a, "inputs,quality,sim_seconds\n") {
				t.Errorf("no curve in the output:\n%s", a)
			}
			if c.check != nil {
				c.check(t, b, bErr)
			}
		})
	}
}
