// Package fault is the repo's deterministic fault-injection layer: a
// seeded Injector that decides, purely from (seed, site, id), whether an
// operation should fail, panic, or stall. The paper's inner loop runs
// over large messy corpora where some inputs are malformed and some
// feature code is broken by construction; this package makes those
// failures a first-class, reproducible input to the system instead of a
// flaky accident. Because every decision is a hash of stable identifiers
// — never time, never math/rand state — two runs with the same fault
// seed inject exactly the same faults in exactly the same places, under
// -race, at any worker count. cmd/zombie's tests build on that guarantee:
// they diff two faulted runs byte for byte.
//
// An Injector is immutable after construction and safe for concurrent
// use from any number of goroutines. A nil *Injector is valid and
// injects nothing, so call sites need no guards.
package fault

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Site names one fault-injection point in the pipeline. Sites are plain
// strings so layers can add their own without touching this package; the
// constants below are the ones the stack wires up.
type Site string

// Canonical injection sites, spanning the stack from corpus IO to the
// serving layer.
const (
	// SiteExtract faults fire inside feature extraction, keyed by input
	// ID — the "engineer's unfinished feature code" failure mode.
	SiteExtract Site = "extract"
	// SiteCorpusRead faults fire when the engine fetches a raw input from
	// the corpus store, keyed by the store index — a corrupt record, a
	// failed disk read.
	SiteCorpusRead Site = "corpus.read"
	// SiteCacheRead / SiteCacheWrite fault the extraction cache's disk
	// segment IO, keyed by cache key — a dying disk under the cache
	// directory. The cache must degrade to memory-only, never fail the
	// extraction.
	SiteCacheRead  Site = "cache.read"
	SiteCacheWrite Site = "cache.write"
	// SiteIndexBuild faults fire in the server's offline index build,
	// keyed by "corpus/strategy#attempt" — the transient failure the
	// build retry exists for.
	SiteIndexBuild Site = "index.build"
	// SiteDistStep faults fire on a distributed worker at the top of each
	// step it executes, keyed by the worker's shard label ("w0", "w1", …).
	// An error rule here models a dead worker (every step routed to it
	// fails, over any transport), a latency rule a slow one. The site is
	// fired worker-side so the local and http transports fail with
	// byte-identical messages.
	SiteDistStep Site = "dist.step"
	// SiteJournalWrite faults fire when the durable run store appends a
	// lifecycle record to its write-ahead journal, keyed by
	// "recordtype#n" — a dying disk under the state directory. Journal
	// failures must never fail a run: the store absorbs them and demotes
	// itself to memory-only after a few.
	SiteJournalWrite Site = "journal.write"
)

// Kind classifies what a fired fault does to the faulted operation.
type Kind int

const (
	// KindError makes the operation return an injected error.
	KindError Kind = iota
	// KindPanic makes the operation panic (the engine's panic isolation
	// must convert it into a quarantine, not a crash).
	KindPanic
	// KindLatency stalls the operation without failing it.
	KindLatency
)

// String returns the kind's label.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindLatency:
		return "latency"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Rule is one site's fault rates. Rates are probabilities in [0,1] over
// the site's id space: ErrRate and PanicRate partition one hash draw
// (an id faults with error or panic, never both); latency uses an
// independent draw so a slow operation can also be one that fails.
type Rule struct {
	Site Site
	// ErrRate of ids return an injected error.
	ErrRate float64
	// PanicRate of ids (disjoint from ErrRate's share) panic.
	PanicRate float64
	// Latency stalls LatencyRate of ids for the given duration.
	Latency     time.Duration
	LatencyRate float64
}

func (r Rule) validate() error {
	if r.Site == "" {
		return fmt.Errorf("fault: rule needs a site")
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"err", r.ErrRate}, {"panic", r.PanicRate}, {"latency", r.LatencyRate}} {
		if !(p.v >= 0 && p.v <= 1) { // NaN included
			return fmt.Errorf("fault: %s: %s rate %v out of [0,1]", r.Site, p.name, p.v)
		}
	}
	if r.ErrRate+r.PanicRate > 1 {
		return fmt.Errorf("fault: %s: err+panic rates %v exceed 1", r.Site, r.ErrRate+r.PanicRate)
	}
	if r.Latency < 0 {
		return fmt.Errorf("fault: %s: negative latency %v", r.Site, r.Latency)
	}
	return nil
}

// Injector decides fault outcomes. The zero of *Injector (nil) injects
// nothing; a non-nil Injector is immutable and concurrency-safe.
type Injector struct {
	seed  int64
	rules map[Site]Rule
}

// New builds an injector from explicit rules. A duplicate site is an
// error: merging rates silently would make specs order-dependent.
func New(seed int64, rules ...Rule) (*Injector, error) {
	inj := &Injector{seed: seed, rules: make(map[Site]Rule, len(rules))}
	for _, r := range rules {
		if err := r.validate(); err != nil {
			return nil, err
		}
		if _, dup := inj.rules[r.Site]; dup {
			return nil, fmt.Errorf("fault: duplicate rule for site %q", r.Site)
		}
		inj.rules[r.Site] = r
	}
	return inj, nil
}

// Parse builds an injector from the flag syntax shared by cmd/zombie and
// cmd/zombie-serve:
//
//	site:key=value[,key=value...][;site:...]
//
// with keys err (error rate), panic (panic rate), lat (latency duration,
// e.g. 10ms) and latp (latency rate, default 1 when lat is set). Example:
//
//	extract:err=0.04,panic=0.04;corpus.read:err=0.03;cache.write:err=1
//
// An empty spec returns a nil injector (inject nothing).
func Parse(spec string, seed int64) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var rules []Rule
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		site, body, ok := strings.Cut(clause, ":")
		site = strings.TrimSpace(site)
		if !ok || site == "" || strings.TrimSpace(body) == "" {
			return nil, fmt.Errorf("fault: clause %q wants site:key=value[,...]", clause)
		}
		rule := Rule{Site: Site(site), LatencyRate: -1}
		for _, kv := range strings.Split(body, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, fmt.Errorf("fault: %s: %q wants key=value", site, kv)
			}
			switch key {
			case "err", "panic", "latp":
				rate, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("fault: %s: bad %s rate %q: %v", site, key, val, err)
				}
				switch key {
				case "err":
					rule.ErrRate = rate
				case "panic":
					rule.PanicRate = rate
				case "latp":
					rule.LatencyRate = rate
				}
			case "lat":
				d, err := time.ParseDuration(val)
				if err != nil {
					return nil, fmt.Errorf("fault: %s: bad latency %q: %v", site, val, err)
				}
				rule.Latency = d
			default:
				return nil, fmt.Errorf("fault: %s: unknown key %q (want err, panic, lat, latp)", site, key)
			}
		}
		if rule.LatencyRate < 0 { // latp unset: lat implies rate 1
			if rule.Latency > 0 {
				rule.LatencyRate = 1
			} else {
				rule.LatencyRate = 0
			}
		}
		rules = append(rules, rule)
	}
	return New(seed, rules...)
}

// Error is the error type injected faults return, so callers that need
// to treat injected failures specially (tests, mostly) can errors.As it.
type Error struct {
	Site Site
	ID   string
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected error at %s on %s", e.Site, e.ID)
}

// roll maps (seed, site, id, stream) to a uniform draw in [0,1). fnv-1a
// over the concatenated identifiers keeps the decision stable across
// processes, goroutine schedules, and -race.
func (inj *Injector) roll(site Site, id, stream string) float64 {
	h := fnv.New64a()
	h.Write([]byte(strconv.FormatInt(inj.seed, 10)))
	h.Write([]byte{0x1f})
	h.Write([]byte(site))
	h.Write([]byte{0x1f})
	h.Write([]byte(id))
	h.Write([]byte{0x1f})
	h.Write([]byte(stream))
	// Keep 53 bits so the float conversion is exact.
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// Fire executes the fault for (site, id): latency faults sleep, panic
// faults panic with a stable message, error faults return *Error, and
// non-faulted ids return nil. Latency is applied before the failure
// draw, so an id can stall and then fail — the worst case a robust
// pipeline has to absorb. Nil injectors return nil immediately.
func (inj *Injector) Fire(site Site, id string) error {
	if inj == nil {
		return nil
	}
	rule, have := inj.rules[site]
	if !have {
		return nil
	}
	if rule.LatencyRate > 0 && rule.Latency > 0 && inj.roll(site, id, "lat") < rule.LatencyRate {
		time.Sleep(rule.Latency)
	}
	u := inj.roll(site, id, "fail")
	switch {
	case u < rule.ErrRate:
		return &Error{Site: site, ID: id}
	case u < rule.ErrRate+rule.PanicRate:
		panic(fmt.Sprintf("fault: injected panic at %s on %s", site, id))
	}
	return nil
}

// Covers reports whether the injector has a rule for site — cheap gate
// for call sites that would otherwise build id strings per operation.
func (inj *Injector) Covers(site Site) bool {
	if inj == nil {
		return false
	}
	_, ok := inj.rules[site]
	return ok
}

// String renders the rules in the Parse syntax, sites sorted, so logs can
// echo the effective fault plan and the dist wire can ship it: Parse reads
// the rendering back, with the same seed, to an injector that makes every
// decision this one does (FuzzFaultSpec).
func (inj *Injector) String() string {
	if inj == nil || len(inj.rules) == 0 {
		return ""
	}
	sites := make([]string, 0, len(inj.rules))
	for s := range inj.rules {
		sites = append(sites, string(s))
	}
	sort.Strings(sites)
	var b strings.Builder
	for i, s := range sites {
		if i > 0 {
			b.WriteByte(';')
		}
		r := inj.rules[Site(s)]
		b.WriteString(s)
		b.WriteByte(':')
		parts := make([]string, 0, 4)
		if r.ErrRate > 0 {
			parts = append(parts, "err="+strconv.FormatFloat(r.ErrRate, 'g', -1, 64))
		}
		if r.PanicRate > 0 {
			parts = append(parts, "panic="+strconv.FormatFloat(r.PanicRate, 'g', -1, 64))
		}
		if r.Latency > 0 {
			parts = append(parts, "lat="+r.Latency.String())
		}
		if r.Latency > 0 || r.LatencyRate > 0 {
			parts = append(parts, "latp="+strconv.FormatFloat(r.LatencyRate, 'g', -1, 64))
		}
		if len(parts) == 0 {
			// A rule that never fires still covers its site.
			parts = append(parts, "err=0")
		}
		b.WriteString(strings.Join(parts, ","))
	}
	return b.String()
}

// Seed returns the injector's seed (0 for nil), for run labels and logs.
func (inj *Injector) Seed() int64 {
	if inj == nil {
		return 0
	}
	return inj.seed
}
