package learner

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"zombie/internal/rng"
)

// The incremental holdout pass (bayes_cache.go) must predict exactly what
// the exact predict does for every example on every pass, whatever was
// fitted or scored in between. These tests compare the two per
// example, and pin the inputs whose bounds cannot decide the winner — they
// must take the fallback, which the model counts.

// exactPredictions returns predict's class for every example of h, and the
// confusion matrix those predictions fill. It refreshes the tables, as
// PredictClass does, without touching the holdout rows.
func exactPredictions(m *GaussianNB, h *Holdout) ([]int, *ConfusionMatrix) {
	m.refresh()
	cm := NewConfusionMatrix(m.NumClasses())
	want := make([]int, len(h.Examples))
	for e, ex := range h.Examples {
		want[e] = m.predict(denseOf(ex.Features))
		cm.Observe(ex.Class, want[e])
	}
	return want, cm
}

// incrementalPass scores ev's holdout through the block path, one example
// per block, and returns the class it predicted per example, the matrix it
// filled, and how many examples it sent to the exact predict.
func incrementalPass(ev *Evaluator) ([]int, *ConfusionMatrix, int64) {
	m, h := ev.m.(*GaussianNB), ev.h
	m.prepare(ev)
	before := ev.rows.fallbacks.Load()
	cm := NewConfusionMatrix(m.NumClasses())
	got := make([]int, len(h.Examples))
	for e, ex := range h.Examples {
		one := NewConfusionMatrix(m.NumClasses())
		m.observeBlock(one, h, ev, e, e+1)
		for c, n := range one.Cells[ex.Class] {
			if n == 1 {
				got[e] = c
			}
		}
		cm.Merge(one)
	}
	return got, cm, ev.rows.fallbacks.Load() - before
}

// checkIncremental asserts that one block pass of ev predicts exactly what
// predict does, example by example, and returns its fallback count.
func checkIncremental(t *testing.T, stage string, ev *Evaluator) int64 {
	t.Helper()
	got, gotCM, fallbacks := incrementalPass(ev)
	want, wantCM := exactPredictions(ev.m.(*GaussianNB), ev.h)
	for e := range want {
		if got[e] != want[e] {
			t.Fatalf("%s: example %d: incremental pass predicts %d, exact %d", stage, e, got[e], want[e])
		}
	}
	for i := range wantCM.Cells {
		for j := range wantCM.Cells[i] {
			if gotCM.Cells[i][j] != wantCM.Cells[i][j] {
				t.Fatalf("%s: confusion cell [%d][%d] %d, exact %d", stage, i, j, gotCM.Cells[i][j], wantCM.Cells[i][j])
			}
		}
	}
	return fallbacks
}

// gaussianStream draws n examples of classes overlapping enough that the
// winner of some examples moves as the model learns.
func gaussianStream(r *rng.RNG, n, classes, dim int) []Example {
	out := make([]Example, n)
	for k := range out {
		c := r.Intn(classes)
		x := make([]float64, dim)
		for i := range x {
			x[i] = r.NormFloat64()*(1+float64(i%3)) + float64((c*(i+1))%5)*0.6
		}
		out[k] = Example{Features: DenseVec(x), Class: c}
	}
	return out
}

// TestIncrementalGaussianMatchesExact replays the engine's cadence — 25
// examples drawn from one to three classes, then a holdout pass — through
// two holdouts scored in turn, one block per example
// and through Evaluator.Quality, in one block (100 examples) and in chunks
// (1 041), at GOMAXPROCS 1 and 4.
func TestIncrementalGaussianMatchesExact(t *testing.T) {
	const classes, dim = 10, 12
	for _, procs := range []int{1, 4} {
		for _, size := range []int{100, 4*evalChunkSize + 17} {
			t.Run(fmt.Sprintf("procs%d/holdout%d", procs, size), func(t *testing.T) {
				atProcs(procs, func() {
					r := rng.New(int64(size))
					curve := NewHoldout(gaussianStream(r, size, classes, dim), MetricMacroF1, 0)
					reward := NewHoldout(gaussianStream(r, 40, classes, dim), MetricAccuracy, 0)
					m := NewGaussianNB(dim, classes, 1e-3)
					curveEv, rewardEv, whole := curve.Evaluator(m), reward.Evaluator(m), curve.Evaluator(m)
					var scored, fallbacks int64
					for step := 0; step < 60; step++ {
						batch := gaussianStream(r, 25, classes, dim)
						picked := r.Intn(3) + 1
						for i := range batch {
							batch[i].Class = (step + i%picked) % classes
							m.PartialFit(batch[i])
						}
						stage := fmt.Sprintf("step %d", step)
						if step%3 == 0 {
							checkIncremental(t, stage+" reward", rewardEv)
						}
						fallbacks += checkIncremental(t, stage, curveEv)
						scored += int64(size)
						// The whole pass, chunked at the larger size.
						_, wantCM := exactPredictions(m, curve)
						if q, want := whole.Quality(), curve.scoreClassification(wantCM); q != want {
							t.Fatalf("%s: Evaluator.Quality %v, exact %v", stage, q, want)
						}
					}
					if fallbacks == scored {
						t.Fatalf("every example took the fallback: the bounds never decide")
					}
				})
			})
		}
	}
}

// fallbackCase is a fitted model and a holdout every example of which the
// bounds must leave undecided.
type fallbackCase struct {
	name string
	m    *GaussianNB
	h    *Holdout
}

// tieModel has one class per count given. Classes 0 and 1 have identical
// moments — every mean 0, every variance the floor, which puts the log
// normalizer at ≈ 8 per feature — and any further class has mean 1 on the
// second feature, far from every fixture example.
func tieModel(counts ...float64) *GaussianNB {
	m := NewGaussianNB(2, len(counts), math.Exp(-16)/(2*math.Pi))
	for c := 2; c < len(counts); c++ {
		m.mean[c][1] = 1
	}
	setCounts(m, counts...)
	return m
}

// setCounts overwrites the class counts, as a fit of that many examples
// at the class means would leave them, and marks every class fitted.
func setCounts(m *GaussianNB, counts ...float64) {
	for c, n := range counts {
		m.classCount[c] = n
		m.gen[c]++
	}
	m.seen = 1
}

// priorUlpFixture finds counts for a three-class tieModel under which the
// log priors of classes 0 and 1 are adjacent floats, class 1's the larger,
// and a first feature x0 for which the exact sums absorb that ulp — the
// scores of classes 0 and 1 tie — while p + L keeps it. x0²/(2·floor) = 16
// makes the first term −8 and the second +8, so L is 0. Whether p − 8
// absorbs the ulp depends only on the prior's last bits, so the search
// walks the counts. (Class 2 keeps both priors near log 0.29, where
// consecutive count ratios are at most one ulp of their logarithm apart.)
// It also returns a count of class 2 under which class 1 wins outright:
// moving only class 2's count from there leaves the rows of classes 0
// and 1 cached while their priors move.
func priorUlpFixture() (counts []float64, x0, count2Before float64, ok bool) {
	prior, scores := make([]float64, 3), make([]float64, 3)
	for base := 0.0; base < 256; base++ {
		counts = []float64{1000.5 + base, 1000.5 + base, 1500}
		for step := 0; step < 64; step++ {
			counts[1] = math.Nextafter(counts[1], 2*counts[0])
			logPriors(counts, prior)
			if prior[1] == math.Nextafter(prior[0], 0) {
				break
			}
		}
		m := tieModel(counts...)
		x := []float64{math.Sqrt(32 * m.varFloor), 0}
		m.logJoint(DenseVec(x), scores)
		l, _ := m.sumPair(x, 0, 0, false)
		p := m.tab.prior
		if p[1] != math.Nextafter(p[0], 0) || scores[0] != scores[1] || !(p[1]+l > p[0]+l) {
			continue
		}
		for before := counts[2] + 1; before < counts[2]+64; before++ {
			m.classCount[2] = before
			m.gen[2]++
			if m.logJoint(DenseVec(x), scores); scores[1] > scores[0] {
				return counts, x[0], before, true
			}
		}
	}
	return nil, 0, 0, false
}

// TestIncrementalGaussianFallbacks pins the inputs the bounds must not
// decide: exact ties, priors one ulp apart whose difference the exact sum
// absorbs, non-finite features, and a class whose variance overflowed.
func TestIncrementalGaussianFallbacks(t *testing.T) {
	// Identical moments and counts: every score ties, the lower class wins.
	tie := NewHoldout([]Example{
		{Features: DenseVec([]float64{0, 0}), Class: 1},
		{Features: DenseVec([]float64{1e-4, -2e-4}), Class: 0},
	}, MetricAccuracy, 0)
	cases := []fallbackCase{{"exact tie", tieModel(7, 7), tie}}

	// Non-finite features against an ordinary fit.
	r := rng.New(3)
	ordinary := NewGaussianNB(3, 3, 1e-3)
	for _, ex := range gaussianStream(r, 90, 3, 3) {
		ordinary.PartialFit(ex)
	}
	inf, nan := math.Inf(1), math.NaN()
	cases = append(cases, fallbackCase{"non-finite features", ordinary, NewHoldout([]Example{
		{Features: DenseVec([]float64{nan, 0, 1}), Class: 0},
		{Features: DenseVec([]float64{inf, 0, 1}), Class: 1},
		{Features: DenseVec([]float64{0, -inf, 1}), Class: 2},
		{Features: DenseVec([]float64{1e300, 0, 1}), Class: 0},
	}, MetricAccuracy, 0)})

	// One fitted outlier overflows a class's variance to +Inf.
	outlier := NewGaussianNB(2, 2, 1e-3)
	for _, ex := range []Example{
		{Features: DenseVec([]float64{1, 2}), Class: 0},
		{Features: DenseVec([]float64{1.5, 2.5}), Class: 0},
		{Features: DenseVec([]float64{0, 0}), Class: 1},
		{Features: DenseVec([]float64{1e200, 0}), Class: 1},
	} {
		outlier.PartialFit(ex)
	}
	if v := outlier.m2[1][0]; !math.IsInf(v, 1) {
		t.Fatalf("fixture lost its overflow: m2 = %v", v)
	}
	cases = append(cases, fallbackCase{"overflowed variance", outlier, NewHoldout([]Example{
		{Features: DenseVec([]float64{1.2, 2.2}), Class: 0},
		{Features: DenseVec([]float64{0, 0}), Class: 1},
	}, MetricAccuracy, 0)})

	for _, c := range cases {
		// Every class moved before the first pass, so it decides exactly;
		// the later ones go through the bounds and must not certify.
		ev := c.h.Evaluator(c.m)
		checkIncremental(t, c.name+" first pass", ev)
		for pass := 1; pass < 3; pass++ {
			stage := fmt.Sprintf("%s pass %d", c.name, pass)
			if got := checkIncremental(t, stage, ev); got != int64(len(c.h.Examples)) {
				t.Fatalf("%s: %d of %d examples took the fallback", stage, got, len(c.h.Examples))
			}
		}
	}
	if want, _ := exactPredictions(cases[0].m, tie); want[0] != 0 || want[1] != 0 {
		t.Fatalf("exact tie predicts %v, want the lower class", want)
	}
}

// TestIncrementalGaussianPriorUlp: classes 0 and 1 share their moments
// and class 1 won the last pass. Then only class 2 is fitted, which leaves
// the cached sums of classes 0 and 1 current and moves their log priors to
// adjacent floats, class 1's above. The exact sum absorbs that ulp into
// the first term, so the scores tie and class 0 wins, while p + L keeps
// it: without slack the bounds would certify class 1.
func TestIncrementalGaussianPriorUlp(t *testing.T) {
	counts, x0, count2Before, ok := priorUlpFixture()
	if !ok {
		t.Fatal("no fixture shows the absorbed prior ulp")
	}
	m := tieModel(counts[0], counts[1], count2Before)
	h := NewHoldout([]Example{{Features: DenseVec([]float64{x0, 0}), Class: 0}}, MetricAccuracy, 0)
	ev := h.Evaluator(m)
	checkIncremental(t, "every class moved", ev)
	m.gen[2]++ // a pass that is not exact fills the rows and records the winner
	checkIncremental(t, "class 1 wins", ev)
	if ev.rows.win[0] != 1 {
		t.Fatal("setup: class 1 did not win")
	}
	m.classCount[2] = counts[2]
	m.gen[2]++
	if got := checkIncremental(t, "priors one ulp apart", ev); got != 1 {
		t.Fatalf("priors one ulp apart: %d fallbacks, want 1", got)
	}
	if ev.rows.win[0] != 0 {
		t.Fatalf("tie went to class %d, want 0", ev.rows.win[0])
	}
}

// keepsRows returns a pass that asserts an evaluator predicts exactly what
// predict does and, from its second pass on, still holds the rows it built
// on its first.
func keepsRows(t *testing.T) func(stage string, ev *Evaluator) {
	rows := map[*Evaluator]*holdoutScores{}
	return func(stage string, ev *Evaluator) {
		t.Helper()
		checkIncremental(t, stage, ev)
		if was, ok := rows[ev]; ok && ev.rows != was {
			t.Fatalf("%s: the evaluator built its rows again", stage)
		}
		rows[ev] = ev.rows
	}
}

// TestIncrementalGaussianRebindsHoldout: rows belong to the evaluator, so
// a holdout of the same length but other examples gets rows of its own,
// and one scored again keeps them.
func TestIncrementalGaussianRebindsHoldout(t *testing.T) {
	r := rng.New(9)
	m := NewGaussianNB(4, 3, 1e-3)
	for _, ex := range gaussianStream(r, 60, 3, 4) {
		m.PartialFit(ex)
	}
	a := NewHoldout(gaussianStream(r, 50, 3, 4), MetricAccuracy, 0).Evaluator(m)
	b := NewHoldout(gaussianStream(r, 50, 3, 4), MetricAccuracy, 0).Evaluator(m)
	pass := keepsRows(t)
	for i := 0; i < 3; i++ {
		pass("holdout a", a)
		pass("holdout b", b)
	}
	if a.rows == b.rows {
		t.Fatal("two holdouts of the same length share their rows")
	}
	pass("holdout b again", b)
}

// TestIncrementalGaussianTwoHoldoutSlots scores one model the way a
// quality-delta run does — the reward subsample around every few fits, the
// curve holdout every so often — through one evaluator each, and requires
// exact predictions on every pass from rows built once per holdout. A
// third holdout as long as the reward subsample, scored in between, takes
// nothing from the other two: each keeps its rows.
func TestIncrementalGaussianTwoHoldoutSlots(t *testing.T) {
	r := rng.New(11)
	m := NewGaussianNB(4, 5, 1e-3)
	stream := gaussianStream(r, 400, 5, 4)
	reward := NewHoldout(gaussianStream(r, 30, 5, 4), MetricMacroF1, 0).Evaluator(m)
	curve := NewHoldout(gaussianStream(r, 120, 5, 4), MetricMacroF1, 0).Evaluator(m)
	other := NewHoldout(gaussianStream(r, 30, 5, 4), MetricMacroF1, 0).Evaluator(m)
	pass := keepsRows(t)
	for i := 0; i < len(stream); i += 4 {
		pass(fmt.Sprintf("reward before %d", i), reward)
		for _, ex := range stream[i : i+4] {
			m.PartialFit(ex)
		}
		pass(fmt.Sprintf("reward after %d", i), reward)
		if i%20 == 0 {
			pass(fmt.Sprintf("curve at %d", i), curve)
		}
		if i%40 == 0 {
			pass(fmt.Sprintf("other at %d", i), other)
		}
	}
	pass("reward after the third", reward)
	pass("curve after the third", curve)
}

// FuzzGaussianCertifiedArgmax drives the incremental pass from raw float64
// bits — counts (so priors), means, m2 (so variances), features — through
// a first pass, one that fills the rows, one in which some counts change,
// and one in which nothing does, comparing every prediction with predict's.
func FuzzGaussianCertifiedArgmax(f *testing.F) {
	floor := math.Exp(-16) / (2 * math.Pi)
	// classes 2, dim 2, 1 example: floor; counts; means; m2; features; new counts.
	f.Add(fuzzGaussianInput(0, 1, 0, floor, 7, 7, 0, 0, 0, 0, 0, 0, 0, 0, 1e-4, -2e-4, 7, 7))
	// classes 3, dim 2, 1 example: the absorbed prior ulp.
	if counts, x0, count2Before, ok := priorUlpFixture(); ok {
		f.Add(fuzzGaussianInput(1, 1, 0, floor, counts[0], counts[1], count2Before, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, x0, 0,
			counts[0], counts[1], counts[2]))
	}
	// classes 3, dim 1, 2 examples: subnormal and zero m2, a huge and a NaN
	// feature, counts moving to a fraction and to -Inf.
	f.Add(fuzzGaussianInput(1, 0, 1, 1e-3, 3, 5, 2, 1, 2, 0, 0, 5e-324, 1, 1e300, math.NaN(), 0.5, 5, math.Inf(-1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		classes, dim, n := 2+int(data[0])%3, 1+int(data[1])%3, 1+int(data[2])%4
		floats := data[3:]
		next := func() float64 {
			if len(floats) < 8 {
				floats = nil
				return 0
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(floats))
			floats = floats[8:]
			return v
		}
		varFloor := next()
		if !(varFloor > 0) {
			varFloor = 1e-3
		}
		m := NewGaussianNB(dim, classes, varFloor)
		for c := range m.classCount {
			m.classCount[c] = next()
		}
		for _, rows := range [][][]float64{m.mean, m.m2} {
			for c := range rows {
				for i := range rows[c] {
					rows[c][i] = next()
				}
			}
		}
		m.seen = 1
		examples := make([]Example, n)
		for e := range examples {
			x := make([]float64, dim)
			for i := range x {
				x[i] = next()
			}
			examples[e] = Example{Features: DenseVec(x), Class: e % classes}
		}
		ev := NewHoldout(examples, MetricAccuracy, 0).Evaluator(m)
		checkIncremental(t, "first pass", ev)
		m.gen[0]++
		checkIncremental(t, "rows filled", ev)
		for c := range m.classCount {
			if v := next(); math.Float64bits(v) != math.Float64bits(m.classCount[c]) {
				m.classCount[c] = v
				m.gen[c]++
			}
		}
		checkIncremental(t, "counts moved", ev)
		checkIncremental(t, "nothing moved", ev)
	})
}

// fuzzGaussianInput encodes a fuzz input: the three shape bytes, then the
// float64s in the order FuzzGaussianCertifiedArgmax reads them.
func fuzzGaussianInput(classes, dim, n byte, floats ...float64) []byte {
	out := []byte{classes, dim, n}
	for _, v := range floats {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}
