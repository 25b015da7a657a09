package learner

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"zombie/internal/linalg"
	"zombie/internal/rng"
)

// The prepared-table scoring in bayes.go must be indistinguishable from
// the per-prediction formulas it replaced. These reference models keep
// those formulas — element access through At/ForEachNonZero, math.Log
// inside the prediction loop, nothing cached — and every test below
// drives a real model and its reference through the same calls and
// compares class scores bit for bit.

// logJoint writes the live model's unnormalized log posterior of every
// class into out, read from its prepared tables.
func (m *MultinomialNB) logJoint(v FeatureVector, out []float64) {
	m.prepare(nil)
	last := len(out) - 1
	for c := 0; c <= last; c += 2 {
		c1 := min(c+1, last)
		out[c], out[c1] = m.tab.scorePair(v, c, c1)
	}
}

// logJoint writes the live model's unnormalized log posterior of every
// class into out, read from its refreshed moment tables.
func (m *GaussianNB) logJoint(v FeatureVector, out []float64) {
	m.refresh()
	x := denseOf(v)
	last := len(out) - 1
	for c := 0; c <= last; c += 2 {
		c1 := min(c+1, last)
		out[c], out[c1] = m.sumPair(x, c, c1, true)
	}
}

type refModel interface {
	PartialFit(ex Example)
	logJoint(v FeatureVector, out []float64)
}

type refMultinomialNB struct {
	alpha      float64
	classCount []float64
	featCount  [][]float64
	featTotal  []float64
}

func newRefMultinomialNB(dim, classes int, alpha float64) *refMultinomialNB {
	m := &refMultinomialNB{
		alpha:      alpha,
		classCount: make([]float64, classes),
		featCount:  make([][]float64, classes),
		featTotal:  make([]float64, classes),
	}
	for c := range m.featCount {
		m.featCount[c] = make([]float64, dim)
	}
	return m
}

func (m *refMultinomialNB) PartialFit(ex Example) {
	m.classCount[ex.Class]++
	row := m.featCount[ex.Class]
	ex.Features.ForEachNonZero(func(i int, v float64) {
		if v > 0 {
			row[i] += v
			m.featTotal[ex.Class] += v
		}
	})
}

func (m *refMultinomialNB) logJoint(v FeatureVector, out []float64) {
	dim := float64(len(m.featCount[0]))
	totalDocs := 0.0
	for _, c := range m.classCount {
		totalDocs += c
	}
	for c := range out {
		prior := math.Log((m.classCount[c] + 1) / (totalDocs + float64(len(out))))
		ll := prior
		den := math.Log(m.featTotal[c] + m.alpha*dim)
		row := m.featCount[c]
		v.ForEachNonZero(func(i int, x float64) {
			if x > 0 {
				ll += x * (math.Log(row[i]+m.alpha) - den)
			}
		})
		out[c] = ll
	}
}

type refGaussianNB struct {
	classCount []float64
	mean, m2   [][]float64
	varFloor   float64
}

func newRefGaussianNB(dim, classes int, varFloor float64) *refGaussianNB {
	m := &refGaussianNB{
		classCount: make([]float64, classes),
		mean:       make([][]float64, classes),
		m2:         make([][]float64, classes),
		varFloor:   varFloor,
	}
	for c := range m.mean {
		m.mean[c] = make([]float64, dim)
		m.m2[c] = make([]float64, dim)
	}
	return m
}

func (m *refGaussianNB) PartialFit(ex Example) {
	c := ex.Class
	m.classCount[c]++
	n := m.classCount[c]
	for i := 0; i < ex.Features.Dim(); i++ {
		x := ex.Features.At(i)
		delta := x - m.mean[c][i]
		m.mean[c][i] += delta / n
		m.m2[c][i] += delta * (x - m.mean[c][i])
	}
}

func (m *refGaussianNB) logJoint(v FeatureVector, out []float64) {
	totalDocs := 0.0
	for _, c := range m.classCount {
		totalDocs += c
	}
	for c := range out {
		prior := math.Log((m.classCount[c] + 1) / (totalDocs + float64(len(out))))
		ll := prior
		n := m.classCount[c]
		for i := 0; i < v.Dim(); i++ {
			variance := m.varFloor
			if n >= 2 {
				variance = m.m2[c][i]/(n-1) + m.varFloor
			}
			d := v.At(i) - m.mean[c][i]
			// The conversion pins the product's rounding on platforms that
			// would fuse it into the subtraction.
			ll += float64(-0.5*math.Log(2*math.Pi*variance)) - d*d/(2*variance)
		}
		out[c] = ll
	}
}

// nbPair is a model under test beside its reference.
type nbPair struct {
	name    string
	model   Classifier
	ref     refModel
	scores  func(v FeatureVector, out []float64) // the model's table-backed logJoint
	classes int
	evals   map[*Holdout]*Evaluator // one per holdout, built on its first score
}

// quality scores h through its evaluator, then one-shot, and fails unless
// both return want. The evaluator goes first, so a check that nothing else
// refreshed the tables still holds.
func (p *nbPair) quality(t *testing.T, stage string, h *Holdout, want float64) {
	t.Helper()
	if p.evals == nil {
		p.evals = map[*Holdout]*Evaluator{}
	}
	ev, ok := p.evals[h]
	if !ok {
		ev = h.Evaluator(p.model)
		p.evals[h] = ev
	}
	if q := ev.Quality(); q != want {
		t.Fatalf("%s/%s: Evaluator.Quality %v != reference %v", p.name, stage, q, want)
	}
	if q := h.Quality(p.model); q != want {
		t.Fatalf("%s/%s: Quality %v != reference %v", p.name, stage, q, want)
	}
}

func (p *nbPair) fit(examples ...Example) {
	for _, ex := range examples {
		p.model.PartialFit(ex)
		p.ref.PartialFit(ex)
	}
}

// check asserts, over every example of h: every class score bit-equal to
// the reference, PredictClass consistent with those scores, and
// the holdout's evaluator and a one-shot Quality equal to the metric of the
// reference's confusion matrix.
func (p *nbPair) check(t *testing.T, stage string, h *Holdout) {
	t.Helper()
	cm := NewConfusionMatrix(p.classes)
	got, want := make([]float64, p.classes), make([]float64, p.classes)
	for n, ex := range h.Examples {
		p.scores(ex.Features, got)
		p.ref.logJoint(ex.Features, want)
		for c := range want {
			if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
				t.Fatalf("%s/%s: example %d class %d: score %v (%#x) != reference %v (%#x)",
					p.name, stage, n, c, got[c], math.Float64bits(got[c]), want[c], math.Float64bits(want[c]))
			}
		}
		class := linalg.ArgMax(want)
		if pc := p.model.PredictClass(ex.Features); pc != class {
			t.Fatalf("%s/%s: example %d: PredictClass %d != reference %d", p.name, stage, n, pc, class)
		}
		cm.Observe(ex.Class, class)
	}
	p.quality(t, stage, h, h.scoreClassification(cm))
}

// checkQuality is the block path alone — no PredictClass or
// logJoint call that would refresh the tables first.
func (p *nbPair) checkQuality(t *testing.T, stage string, h *Holdout) {
	t.Helper()
	cm := NewConfusionMatrix(p.classes)
	want := make([]float64, p.classes)
	for _, ex := range h.Examples {
		p.ref.logJoint(ex.Features, want)
		cm.Observe(ex.Class, linalg.ArgMax(want))
	}
	p.quality(t, stage, h, h.scoreClassification(cm))
}

const preparedDim = 24

// preparedCase is one family × input layout × class count.
type preparedCase struct {
	gaussian, sparse bool
	classes          int
}

func (pc preparedCase) String() string {
	family, layout := "multinomial", "dense"
	if pc.gaussian {
		family = "gaussian"
	}
	if pc.sparse {
		layout = "sparse"
	}
	return fmt.Sprintf("%s/%s/%dclasses", family, layout, pc.classes)
}

func (pc preparedCase) pair() *nbPair {
	if pc.gaussian {
		m := NewGaussianNB(preparedDim, pc.classes, 1e-3)
		return &nbPair{pc.String(), m, newRefGaussianNB(preparedDim, pc.classes, 1e-3), m.logJoint, pc.classes, nil}
	}
	m := NewMultinomialNB(preparedDim, pc.classes, 0.5)
	return &nbPair{pc.String(), m, newRefMultinomialNB(preparedDim, pc.classes, 0.5), m.logJoint, pc.classes, nil}
}

// examples draws n labeled examples: a class-dependent handful of active
// coordinates, with some non-positive values (which MultinomialNB must
// ignore and GaussianNB must not).
func (pc preparedCase) examples(r *rng.RNG, n int) []Example {
	out := make([]Example, n)
	for k := range out {
		class := r.Intn(pc.classes)
		vals := map[int]float64{}
		for j := 0; j < 6; j++ {
			x := float64(r.IntRange(1, 5))
			if pc.gaussian {
				x = r.NormFloat64() + float64(class)
			}
			if r.Bernoulli(0.15) {
				x = -x
			}
			vals[(class*3+r.Intn(9))%preparedDim] = x
		}
		out[k] = Example{Features: pc.vector(vals), Class: class}
	}
	return out
}

func (pc preparedCase) vector(vals map[int]float64) FeatureVector {
	if pc.sparse {
		return sv(preparedDim, vals)
	}
	dense := make([]float64, preparedDim)
	for i, x := range vals {
		dense[i] = x
	}
	return DenseVec(dense)
}

func forEachPreparedCase(t *testing.T, f func(t *testing.T, pc preparedCase, r *rng.RNG)) {
	for _, gaussian := range []bool{false, true} {
		for _, sparse := range []bool{false, true} {
			for _, classes := range []int{2, 3, 7, 10} {
				pc := preparedCase{gaussian, sparse, classes}
				t.Run(pc.String(), func(t *testing.T) { f(t, pc, rng.New(int64(classes))) })
			}
		}
	}
}

// TestPreparedScoresMatchReference walks one model through the sequence
// that would expose a stale table: scored fresh, refitted on features the
// table already holds, flooded with more touches than the table has
// entries, and refitted after the flood.
func TestPreparedScoresMatchReference(t *testing.T) {
	forEachPreparedCase(t, func(t *testing.T, pc preparedCase, r *rng.RNG) {
		p := pc.pair()
		h := NewHoldout(pc.examples(r, 300), MetricMacroF1, 1)
		train := pc.examples(r, 400)

		// More touches than dim before the tables exist.
		p.fit(train[:100]...)
		p.check(t, "first score", h)
		p.check(t, "rescore unchanged", h)

		// One more example of features the table already holds.
		p.fit(train[0])
		p.check(t, "refit known feature", h)

		// A few fits between scores: the engine's EvalEvery cadence.
		for lo := 100; lo < 200; lo += 25 {
			p.fit(train[lo : lo+25]...)
			p.check(t, fmt.Sprintf("after %d", lo+25), h)
		}

		// More touches than dim between two scores.
		p.fit(train[200:400]...)
		p.check(t, "flooded", h)

		p.fit(train[300:310]...)
		p.check(t, "after flood", h)
		p.fit(train[310])
		p.check(t, "after flood, refit", h)
	})
}

// TestPreparedBlockPathAlone repeats the stale-table sequence touching the
// model through its evaluator and Quality only, so nothing but their own
// prepare call can have refreshed the tables.
func TestPreparedBlockPathAlone(t *testing.T) {
	forEachPreparedCase(t, func(t *testing.T, pc preparedCase, r *rng.RNG) {
		p := pc.pair()
		h := NewHoldout(pc.examples(r, 300), MetricAccuracy, 0)
		train := pc.examples(r, 300)
		p.fit(train[:60]...)
		p.checkQuality(t, "first score", h)
		p.fit(train[0])
		p.checkQuality(t, "refit known feature", h)
		p.fit(train[60:300]...)
		p.checkQuality(t, "flooded", h)
		p.fit(train[:5]...)
		p.checkQuality(t, "after flood", h)
	})
}

// TestPreparedDeltaRewardBracket scores one model through two evaluators
// around a PartialFit, the way the engine brackets an update under the
// delta reward while the curve holdout scores the same model.
func TestPreparedDeltaRewardBracket(t *testing.T) {
	forEachPreparedCase(t, func(t *testing.T, pc preparedCase, r *rng.RNG) {
		p := pc.pair()
		curve := NewHoldout(pc.examples(r, 300), MetricMacroF1, 1)
		reward := NewHoldout(pc.examples(r, 40), MetricAccuracy, 0)
		train := pc.examples(r, 60)
		p.fit(train[:20]...)
		for step, ex := range train[20:] {
			stage := fmt.Sprintf("step %d", step)
			p.checkQuality(t, stage+" before", reward)
			p.fit(ex)
			p.checkQuality(t, stage+" after", reward)
			if step%10 == 0 {
				p.checkQuality(t, stage+" curve", curve)
				p.checkQuality(t, stage+" reward again", reward)
			}
		}
		p.check(t, "end", curve)
	})
}

// TestMultinomialNonPositiveSparseValues pins the one input shape the
// generators above only hit by chance: stored sparse entries that are
// negative, in the fitted examples and in the scored ones.
func TestMultinomialNonPositiveSparseValues(t *testing.T) {
	pc := preparedCase{sparse: true, classes: 3}
	p := pc.pair()
	neg := Example{Features: sv(preparedDim, map[int]float64{0: -2, 3: 1, 7: -1, 9: 4}), Class: 1}
	allNeg := Example{Features: sv(preparedDim, map[int]float64{2: -1, 5: -3}), Class: 2}
	h := NewHoldout([]Example{neg, allNeg, {Features: sv(preparedDim, map[int]float64{3: 2}), Class: 0}}, MetricAccuracy, 0)
	p.fit(neg, allNeg)
	p.check(t, "first score", h)
	p.fit(neg, allNeg, allNeg)
	p.check(t, "refit", h)
	m := p.model.(*MultinomialNB)
	for _, i := range []int{0, 2, 5, 7} {
		for c := range m.featCount {
			if m.featCount[c][i] != 0 {
				t.Fatalf("non-positive value leaked into count [%d][%d] = %v", c, i, m.featCount[c][i])
			}
		}
	}
}

// TestMultinomialTouchTrackingBounded asserts the touched lists never
// outgrow the rows they index, however long the model goes unscored, and
// that a never-scored model tracks nothing at all.
func TestMultinomialTouchTrackingBounded(t *testing.T) {
	pc := preparedCase{sparse: true, classes: 2}
	r := rng.New(5)
	m := NewMultinomialNB(preparedDim, 2, 1)
	train := pc.examples(r, 500)
	for _, ex := range train[:250] {
		m.PartialFit(ex)
	}
	if m.tab != nil {
		t.Fatal("a never-scored model allocated score tables")
	}
	m.PredictClass(train[0].Features)
	for _, ex := range train[250:] {
		m.PartialFit(ex)
		for c, touched := range m.tab.touched {
			if len(touched) > preparedDim {
				t.Fatalf("class %d tracks %d touches over a %d-entry row", c, len(touched), preparedDim)
			}
		}
	}
	g := NewGaussianNB(preparedDim, 2, 1e-3)
	g.PartialFit(preparedCase{gaussian: true, classes: 2}.examples(r, 1)[0])
	if g.tab != nil {
		t.Fatal("a never-scored model allocated score tables")
	}
}

// TestQualityFreshlyFitted runs a chunked evaluator pass on a model whose
// tables do not exist yet, and then on one whose tables are stale, beside
// a one-shot pass on a twin: the refresh must happen before the chunks
// start, which -race -count=10 checks.
func TestQualityFreshlyFitted(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	forEachPreparedCase(t, func(t *testing.T, pc preparedCase, r *rng.RNG) {
		h := NewHoldout(pc.examples(r, 4*evalChunkSize+17), MetricMacroF1, 1)
		train := pc.examples(r, 80)
		oneShot, incremental, ref := pc.pair().model, pc.pair().model, pc.pair().model
		ev := h.Evaluator(incremental)
		for _, stage := range [][]Example{train[:40], train[40:]} {
			for _, ex := range stage {
				oneShot.PartialFit(ex)
				incremental.PartialFit(ex)
				ref.PartialFit(ex)
			}
			want := perExampleQuality(h, ref)
			if got := h.Quality(oneShot); got != want {
				t.Fatalf("Quality %v != per-example %v", got, want)
			}
			if got := ev.Quality(); got != want {
				t.Fatalf("Evaluator.Quality %v != per-example %v", got, want)
			}
		}
	})
}

// TestPredictTieBreaksLikeArgMax: four never-fitted classes tie for the
// best score; the lowest index must win, as linalg.ArgMax decides.
func TestPredictTieBreaksLikeArgMax(t *testing.T) {
	m := NewMultinomialNB(4, 5, 1)
	m.PartialFit(Example{Features: sv(4, map[int]float64{0: 1}), Class: 4})
	scores := make([]float64, 5)
	v := sv(4, map[int]float64{1: 5})
	m.logJoint(v, scores)
	if scores[0] != scores[3] || scores[0] <= scores[4] {
		t.Fatalf("fixture lost its tie at the top: %v", scores)
	}
	if got := m.PredictClass(v); got != 0 {
		t.Fatalf("PredictClass %d, want 0 (ArgMax %d of %v)", got, linalg.ArgMax(scores), scores)
	}
}
