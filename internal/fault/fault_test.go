package fault

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// Check reports the fault (site, id) draws, without executing it:
// KindError and KindPanic from one draw against the rule's partition,
// KindLatency from an independent draw. ok is false when no rule covers
// the site or no fault fires. A nil injector never fires.
func (inj *Injector) Check(site Site, id string) (kind Kind, delay time.Duration, ok bool) {
	if inj == nil {
		return 0, 0, false
	}
	rule, have := inj.rules[site]
	if !have {
		return 0, 0, false
	}
	if rule.LatencyRate > 0 && inj.roll(site, id, "lat") < rule.LatencyRate {
		// Latency composes with error/panic at the call site via Fire;
		// Check reports the first applicable kind in fire order.
		return KindLatency, rule.Latency, true
	}
	u := inj.roll(site, id, "fail")
	switch {
	case u < rule.ErrRate:
		return KindError, 0, true
	case u < rule.ErrRate+rule.PanicRate:
		return KindPanic, 0, true
	}
	return 0, 0, false
}

func mustNew(t *testing.T, seed int64, rules ...Rule) *Injector {
	t.Helper()
	inj, err := New(seed, rules...)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	if err := inj.Fire(SiteExtract, "x"); err != nil {
		t.Fatalf("nil injector fired: %v", err)
	}
	if _, _, ok := inj.Check(SiteExtract, "x"); ok {
		t.Fatal("nil injector checked true")
	}
	if inj.Covers(SiteExtract) {
		t.Fatal("nil injector covers a site")
	}
	if inj.String() != "" || inj.Seed() != 0 {
		t.Fatal("nil injector not empty")
	}
}

func TestDeterministicByKey(t *testing.T) {
	a := mustNew(t, 7, Rule{Site: SiteExtract, ErrRate: 0.3, PanicRate: 0.2})
	b := mustNew(t, 7, Rule{Site: SiteExtract, ErrRate: 0.3, PanicRate: 0.2})
	for i := 0; i < 500; i++ {
		id := fmt.Sprintf("in-%03d", i)
		ka, da, oka := a.Check(SiteExtract, id)
		kb, db, okb := b.Check(SiteExtract, id)
		if ka != kb || da != db || oka != okb {
			t.Fatalf("id %s: (%v,%v,%v) vs (%v,%v,%v)", id, ka, da, oka, kb, db, okb)
		}
	}
}

func TestSeedChangesOutcomes(t *testing.T) {
	a := mustNew(t, 1, Rule{Site: SiteExtract, ErrRate: 0.5})
	b := mustNew(t, 2, Rule{Site: SiteExtract, ErrRate: 0.5})
	differ := false
	for i := 0; i < 200 && !differ; i++ {
		id := fmt.Sprintf("in-%03d", i)
		_, _, oka := a.Check(SiteExtract, id)
		_, _, okb := b.Check(SiteExtract, id)
		differ = oka != okb
	}
	if !differ {
		t.Fatal("different seeds produced identical fault sets")
	}
}

func TestRatesApproximatelyHold(t *testing.T) {
	inj := mustNew(t, 42, Rule{Site: SiteExtract, ErrRate: 0.25, PanicRate: 0.25})
	var errs, panics int
	const n = 4000
	for i := 0; i < n; i++ {
		kind, _, ok := inj.Check(SiteExtract, fmt.Sprintf("id-%d", i))
		if !ok {
			continue
		}
		switch kind {
		case KindError:
			errs++
		case KindPanic:
			panics++
		}
	}
	for name, got := range map[string]int{"errs": errs, "panics": panics} {
		frac := float64(got) / n
		if frac < 0.20 || frac > 0.30 {
			t.Fatalf("%s rate %v far from 0.25", name, frac)
		}
	}
}

func TestFireKinds(t *testing.T) {
	inj := mustNew(t, 3,
		Rule{Site: "all-err", ErrRate: 1},
		Rule{Site: "all-panic", PanicRate: 1},
		Rule{Site: "all-lat", Latency: time.Millisecond, LatencyRate: 1})

	err := inj.Fire("all-err", "x")
	var fe *Error
	if !errors.As(err, &fe) || fe.Site != "all-err" || fe.ID != "x" {
		t.Fatalf("error fault wrong: %v", err)
	}
	if !strings.Contains(err.Error(), "all-err") || !strings.Contains(err.Error(), "x") {
		t.Fatalf("error message lacks context: %v", err)
	}

	func() {
		defer func() {
			p := recover()
			if p == nil || !strings.Contains(fmt.Sprint(p), "injected panic") {
				t.Fatalf("panic fault wrong: %v", p)
			}
		}()
		inj.Fire("all-panic", "x") //nolint:errcheck // panics
	}()

	start := time.Now()
	if err := inj.Fire("all-lat", "x"); err != nil {
		t.Fatalf("latency fault errored: %v", err)
	}
	if time.Since(start) < time.Millisecond {
		t.Fatal("latency fault did not stall")
	}

	if err := inj.Fire("uncovered", "x"); err != nil {
		t.Fatalf("uncovered site fired: %v", err)
	}
}

func TestParseRoundTrip(t *testing.T) {
	inj, err := Parse("extract:err=0.04,panic=0.04; corpus.read:err=0.03;cache.write:err=1", 9)
	if err != nil {
		t.Fatal(err)
	}
	if !inj.Covers(SiteExtract) || !inj.Covers(SiteCorpusRead) || !inj.Covers(SiteCacheWrite) {
		t.Fatalf("parsed sites missing: %s", inj)
	}
	if inj.Seed() != 9 {
		t.Fatalf("seed %d", inj.Seed())
	}
	s := inj.String()
	for _, want := range []string{"extract:err=0.04,panic=0.04", "corpus.read:err=0.03", "cache.write:err=1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() %q missing %q", s, want)
		}
	}
	// The rendered spec must parse back to the same plan.
	back, err := Parse(s, 9)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != s {
		t.Fatalf("round trip drifted: %q vs %q", back.String(), s)
	}
}

func TestParseLatencyDefaults(t *testing.T) {
	inj, err := Parse("extract:lat=5ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	kind, delay, ok := inj.Check(SiteExtract, "anything")
	if !ok || kind != KindLatency || delay != 5*time.Millisecond {
		t.Fatalf("lat without latp should fire always: %v %v %v", kind, delay, ok)
	}

	inj, err = Parse("extract:lat=5ms,latp=0", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := inj.Check(SiteExtract, "anything"); ok {
		t.Fatal("latp=0 still fired")
	}
}

func TestParseEmptyAndErrors(t *testing.T) {
	if inj, err := Parse("   ", 1); err != nil || inj != nil {
		t.Fatalf("blank spec: %v %v", inj, err)
	}
	for _, bad := range []string{
		"noseparator",
		":err=1",
		"extract:",
		"extract:err",
		"extract:err=x",
		"extract:lat=x",
		"extract:wat=1",
		"extract:err=1.5",
		"extract:err=0.6,panic=0.6",
		"extract:err=-0.1",
		"extract:err=0.1;extract:panic=0.1",
	} {
		if _, err := Parse(bad, 1); err == nil {
			t.Fatalf("spec %q should fail", bad)
		}
	}
}

func TestNewRejectsBadRules(t *testing.T) {
	if _, err := New(1, Rule{}); err == nil {
		t.Fatal("empty site accepted")
	}
	if _, err := New(1, Rule{Site: "s", Latency: -time.Second}); err == nil {
		t.Fatal("negative latency accepted")
	}
	if _, err := New(1, Rule{Site: "s", LatencyRate: 2}); err == nil {
		t.Fatal("latency rate > 1 accepted")
	}
}

func TestKindString(t *testing.T) {
	if KindError.String() != "error" || KindPanic.String() != "panic" || KindLatency.String() != "latency" {
		t.Fatal("kind labels wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatal("unknown kind label wrong")
	}
}

func TestConcurrentUseIsRaceFree(t *testing.T) {
	inj := mustNew(t, 5, Rule{Site: SiteExtract, ErrRate: 0.5})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				inj.Fire(SiteExtract, fmt.Sprintf("g%d-%d", g, i)) //nolint:errcheck
				inj.Check(SiteExtract, fmt.Sprintf("g%d-%d", g, i))
			}
		}(g)
	}
	wg.Wait()
}

// FuzzFaultSpec: every spec Parse accepts renders, through String and
// Seed, to a spec Parse reads back to the same injector — the same
// rendering and the same Check decision on every probed (site, id). The
// dist wire ships the rendering, not the spec a client typed, so a worker
// faults exactly the inputs the coordinator's own run would.
func FuzzFaultSpec(f *testing.F) {
	for _, spec := range []string{
		"extract:err=0.04,panic=0.04; corpus.read:err=0.03;cache.write:err=1",
		"extract:lat=5ms",
		"dist.step:lat=2ms,latp=1",
		"extract:err=0",
		"extract:latp=0.5",
		"index.build:lat=1ms,latp=0;journal.write:panic=1",
		"extract:err=NaN",
		"",
	} {
		f.Add(spec, int64(7))
	}
	ids := []string{"", "0", "17", "w0", "w1", "img-000003", "corpus/kmeans#1"}
	f.Fuzz(func(t *testing.T, spec string, seed int64) {
		inj, err := Parse(spec, seed)
		if err != nil {
			return
		}
		back, err := Parse(inj.String(), inj.Seed())
		if err != nil {
			t.Fatalf("Parse(%q) accepted, its rendering %q did not: %v", spec, inj.String(), err)
		}
		if back.String() != inj.String() {
			t.Fatalf("rendering drifted: %q -> %q", inj.String(), back.String())
		}
		sites := []Site{SiteExtract, SiteCorpusRead, SiteCacheRead, SiteCacheWrite, SiteIndexBuild, SiteDistStep, SiteJournalWrite}
		if inj != nil {
			for s := range inj.rules {
				sites = append(sites, s)
			}
		}
		for _, site := range sites {
			if inj.Covers(site) != back.Covers(site) {
				t.Fatalf("%q: Covers(%s) %v vs %v after round trip", spec, site, inj.Covers(site), back.Covers(site))
			}
			for _, id := range ids {
				k1, d1, ok1 := inj.Check(site, id)
				k2, d2, ok2 := back.Check(site, id)
				if k1 != k2 || d1 != d2 || ok1 != ok2 {
					t.Fatalf("%q: Check(%s, %q) = (%v %v %v), round trip (%v %v %v)", spec, site, id, k1, d1, ok1, k2, d2, ok2)
				}
			}
		}
	})
}
