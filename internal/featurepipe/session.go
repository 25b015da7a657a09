package featurepipe

import "fmt"

// Session is one feature-engineering session: an ordered series of
// feature-code versions the engineer evaluates in turn, each informed by
// the previous run's verdict. The paper's end-to-end claim (engineer wait
// time cut from 8 to 5 hours) is about the *sum* of inner-loop times
// across a session; experiment T3 reproduces it by replaying a session
// under both the scan baseline and Zombie.
type Session struct {
	// Name labels the session.
	Name string
	// Versions are the successive feature-code versions, oldest first.
	Versions []FeatureFunc
	// ThinkTime is the fixed engineer time between runs (reading results,
	// editing code); it is identical under both systems and dilutes the
	// relative speedup exactly as in the paper's 8h→5h arithmetic.
	ThinkTimeMinutes float64
}

// NewSession validates and returns a session. It returns an error when no
// versions are supplied or any version is nil.
func NewSession(name string, thinkTimeMinutes float64, versions ...FeatureFunc) (*Session, error) {
	if len(versions) == 0 {
		return nil, fmt.Errorf("featurepipe: session %s needs at least one version", name)
	}
	for i, v := range versions {
		if v == nil {
			return nil, fmt.Errorf("featurepipe: session %s: version %d is nil", name, i)
		}
	}
	if thinkTimeMinutes < 0 {
		return nil, fmt.Errorf("featurepipe: session %s: negative think time", name)
	}
	return &Session{Name: name, Versions: versions, ThinkTimeMinutes: thinkTimeMinutes}, nil
}

// StandardWikiSession returns the 8-iteration wiki engineering session
// used by experiment T3: the engineer starts with a low-capacity hashed
// bag of words and incrementally widens the hash space, boosts the
// infobox-marker signal and adds bigrams.
func StandardWikiSession() *Session {
	versions := make([]FeatureFunc, 0, 8)
	for v := 1; v <= 8; v++ {
		versions = append(versions, NewWikiFeature(v))
	}
	s, err := NewSession("wiki-session", 10, versions...)
	if err != nil {
		panic(err) // static construction cannot fail
	}
	return s
}

// CompositeWikiSession returns a 4-iteration engineering session over
// three-part composite feature code where each iteration edits exactly
// one part — the session shape under which part-level extraction caching
// pays: two thirds of every iteration's extraction work was already
// computed by the previous one. The cache benchmark (C1) replays it cold
// and warm.
func CompositeWikiSession() *Session {
	mk := func(v int, parts ...FeatureFunc) FeatureFunc {
		c, err := NewCompositeFeature(fmt.Sprintf("cwiki-v%d", v), parts...)
		if err != nil {
			panic(err) // static construction cannot fail
		}
		return c
	}
	versions := []FeatureFunc{
		mk(1, NewWikiFeature(2), NewWikiFeature(4), NewWikiFeature(5)),
		mk(2, NewWikiFeature(2), NewWikiFeature(4), NewWikiFeature(6)),
		mk(3, NewWikiFeature(3), NewWikiFeature(4), NewWikiFeature(6)),
		mk(4, NewWikiFeature(3), NewWikiFeature(4), NewWikiFeature(8)),
	}
	s, err := NewSession("cwiki-session", 10, versions...)
	if err != nil {
		panic(err)
	}
	return s
}
