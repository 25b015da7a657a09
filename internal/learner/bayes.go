package learner

import (
	"math"
	"sync"
)

// The naive Bayes families score from tables that depend only on the
// fitted state, so a holdout pass pays the model-dependent cost (the
// logarithms) once per fit state instead of once per prediction. Every
// per-class sum keeps the term order and the operations of the textbook
// per-prediction form — no reciprocal, no re-association — so class scores
// are bit-identical to it; bayes_prepared_test.go holds that form as the
// reference.

// logPriors writes the smoothed log class priors into out; with no data
// all classes tie.
func logPriors(classCount, out []float64) {
	totalDocs := 0.0
	for _, c := range classCount {
		totalDocs += c
	}
	for c := range out {
		out[c] = math.Log((classCount[c] + 1) / (totalDocs + float64(len(out))))
	}
}

// MultinomialNB is an incremental multinomial naive Bayes classifier with
// Laplace (add-alpha) smoothing. It expects non-negative feature values
// (term counts or tf-idf weights) and is the natural learner for the
// hashed text features Zombie's wiki task produces. Negative feature
// values are treated as zero.
type MultinomialNB struct {
	alpha      float64
	classCount []float64
	featCount  [][]float64 // [class][feature] accumulated counts
	featTotal  []float64   // [class] sum over features
	seen       int
	tab        *multinomialTables // nil until the model is first scored
	mu         sync.Mutex         // held while the tables are refreshed
}

// multinomialTables is what MultinomialNB scoring needs of the fitted
// counts. A PartialFit changes one log-count per non-zero of its example,
// so the model records which entries it touched and prepare recomputes
// only those.
type multinomialTables struct {
	prior    []float64   // [class] log smoothed class prior
	den      []float64   // [class] log(featTotal + alpha*dim)
	logCount [][]float64 // [class][feature] log(featCount + alpha)
	touched  [][]int     // [class] features fitted since the last prepare
	// whole marks a class whose entire row is out of date: before the
	// first prepare, and once touched would outgrow the row
	// it indexes (recomputing the row is then the cheaper refresh).
	whole []bool
	stale bool // a PartialFit since the last prepare
}

// NewMultinomialNB returns a multinomial NB over dim features and
// numClasses classes with smoothing alpha. It panics if alpha <= 0.
func NewMultinomialNB(dim, numClasses int, alpha float64) *MultinomialNB {
	if dim <= 0 || numClasses < 2 {
		panic("learner: MultinomialNB requires dim > 0 and numClasses >= 2")
	}
	if alpha <= 0 {
		panic("learner: MultinomialNB alpha must be > 0")
	}
	m := &MultinomialNB{
		alpha:      alpha,
		classCount: make([]float64, numClasses),
		featCount:  make([][]float64, numClasses),
		featTotal:  make([]float64, numClasses),
	}
	for c := range m.featCount {
		m.featCount[c] = make([]float64, dim)
	}
	return m
}

// PartialFit implements Model.
func (m *MultinomialNB) PartialFit(ex Example) {
	checkDim(len(m.featCount[0]), ex.Features, "MultinomialNB")
	checkClass(len(m.featCount), ex.Class, "MultinomialNB")
	c := ex.Class
	m.classCount[c]++
	row, total := m.featCount[c], m.featTotal[c]
	if s := ex.Features.sparse; s != nil {
		for k, i := range s.Idx {
			if v := s.Val[k]; v > 0 {
				row[i] += v
				total += v
			}
		}
	} else {
		for i, v := range ex.Features.dense {
			if v > 0 {
				row[i] += v
				total += v
			}
		}
	}
	m.featTotal[c] = total
	m.seen++
	if m.tab != nil {
		m.tab.touch(c, ex.Features)
	}
}

// touch records that an example of class c was fitted.
func (t *multinomialTables) touch(c int, v FeatureVector) {
	t.stale = true
	if t.whole[c] {
		return
	}
	if len(t.touched[c])+v.NNZ() > len(t.logCount[c]) {
		t.whole[c] = true
		t.touched[c] = t.touched[c][:0]
		return
	}
	if v.sparse != nil {
		t.touched[c] = append(t.touched[c], v.sparse.Idx...)
		return
	}
	for i, x := range v.dense {
		if x != 0 {
			t.touched[c] = append(t.touched[c], i)
		}
	}
}

// prepare implements blockClassifier; a pass only reads the tables, so an
// evaluator keeps nothing for this model.
func (m *MultinomialNB) prepare(*Evaluator) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.tab
	if t == nil {
		classes, dim := len(m.featCount), len(m.featCount[0])
		t = &multinomialTables{
			prior:    make([]float64, classes),
			den:      make([]float64, classes),
			logCount: make([][]float64, classes),
			touched:  make([][]int, classes),
			whole:    make([]bool, classes),
			stale:    true,
		}
		for c := range t.logCount {
			t.logCount[c] = make([]float64, dim)
			t.whole[c] = true
		}
		m.tab = t
	}
	if !t.stale {
		return
	}
	t.stale = false
	logPriors(m.classCount, t.prior)
	dim := float64(len(m.featCount[0]))
	for c, row := range m.featCount {
		t.den[c] = math.Log(m.featTotal[c] + m.alpha*dim)
		lc := t.logCount[c]
		if !t.whole[c] {
			for _, i := range t.touched[c] {
				lc[i] = math.Log(row[i] + m.alpha)
			}
			t.touched[c] = t.touched[c][:0]
			continue
		}
		t.whole[c] = false
		// A never-fitted feature's entry is log(0+alpha): one constant for
		// the row, not a logarithm per feature.
		logAlpha := math.Log(m.alpha)
		for i, n := range row {
			if n == 0 {
				lc[i] = logAlpha
			} else {
				lc[i] = math.Log(n + m.alpha)
			}
		}
	}
}

// scorePair returns the unnormalized log posteriors of classes c0 and c1
// (which may be equal), accumulated side by side so the two dependency
// chains overlap: prior + Σ x·(logCount − den) over the positive
// coordinates in increasing index order.
func (t *multinomialTables) scorePair(v FeatureVector, c0, c1 int) (s0, s1 float64) {
	s0, s1 = t.prior[c0], t.prior[c1]
	l0, l1 := t.logCount[c0], t.logCount[c1]
	d0, d1 := t.den[c0], t.den[c1]
	if s := v.sparse; s != nil {
		val := s.Val[:len(s.Idx)]
		for k, i := range s.Idx {
			if x := val[k]; x > 0 {
				s0 += x * (l0[i] - d0)
				s1 += x * (l1[i] - d1)
			}
		}
		return s0, s1
	}
	l0, l1 = l0[:len(v.dense)], l1[:len(v.dense)]
	for i, x := range v.dense {
		if x > 0 {
			s0 += x * (l0[i] - d0)
			s1 += x * (l1[i] - d1)
		}
	}
	return s0, s1
}

// predict returns linalg.ArgMax of the class scores (ties to the lower
// class, NaN never displacing the incumbent) without materializing them.
// Classes are scored in pairs; an odd class count scores its last class
// beside itself.
func (t *multinomialTables) predict(v FeatureVector) int {
	last := len(t.prior) - 1
	best, bestC := 0.0, 0
	for c := 0; c <= last; c += 2 {
		c1 := min(c+1, last)
		s0, s1 := t.scorePair(v, c, c1)
		if c == 0 || s0 > best {
			best, bestC = s0, c
		}
		if s1 > best {
			best, bestC = s1, c1
		}
	}
	return bestC
}

// observeBlock implements blockClassifier.
func (m *MultinomialNB) observeBlock(cm *ConfusionMatrix, h *Holdout, _ *Evaluator, lo, hi int) {
	dim := len(m.featCount[0])
	examples := h.Examples[lo:hi]
	for i := range examples {
		ex := &examples[i]
		checkDim(dim, ex.Features, "MultinomialNB")
		cm.Observe(ex.Class, m.tab.predict(ex.Features))
	}
}

// PredictClass implements Classifier.
func (m *MultinomialNB) PredictClass(v FeatureVector) int {
	checkDim(len(m.featCount[0]), v, "MultinomialNB")
	m.prepare(nil)
	return m.tab.predict(v)
}

// NumClasses implements Classifier.
func (m *MultinomialNB) NumClasses() int { return len(m.featCount) }

// Seen implements Model.
func (m *MultinomialNB) Seen() int { return m.seen }

// GaussianNB is an incremental Gaussian naive Bayes classifier: each
// feature is modeled per class by an online mean and variance (Welford
// update). It suits the dense numeric features of the song and image
// tasks.
type GaussianNB struct {
	classCount []float64
	mean       [][]float64
	m2         [][]float64
	varFloor   float64
	seen       int
	gen        []uint64        // [class] bumped by PartialFit; from 1
	tab        *gaussianTables // nil until the model is first scored
	mu         sync.Mutex      // held while the tables are refreshed
}

// gaussianTables is what GaussianNB scoring needs of the fitted moments
// besides the means. A PartialFit moves every variance of its class (the
// n-1 divisor), so the tables are refreshed per class.
type gaussianTables struct {
	prior   []float64   // [class] log smoothed class prior
	logNorm [][]float64 // [class][feature] -0.5·log(2π·var)
	twoVar  [][]float64 // [class][feature] 2·var
	posNorm []float64   // [class] Σ |logNorm| + logNorm, NaN if a twoVar ≤ 0
	gen     []uint64    // [class] the model generation the rows reflect
}

// NewGaussianNB returns a Gaussian NB over dim features. varFloor guards
// against zero-variance features; it panics if varFloor <= 0.
func NewGaussianNB(dim, numClasses int, varFloor float64) *GaussianNB {
	if dim <= 0 || numClasses < 2 {
		panic("learner: GaussianNB requires dim > 0 and numClasses >= 2")
	}
	if varFloor <= 0 {
		panic("learner: GaussianNB varFloor must be > 0")
	}
	m := &GaussianNB{
		classCount: make([]float64, numClasses),
		mean:       make([][]float64, numClasses),
		m2:         make([][]float64, numClasses),
		varFloor:   varFloor,
		gen:        make([]uint64, numClasses),
	}
	for c := 0; c < numClasses; c++ {
		m.mean[c] = make([]float64, dim)
		m.m2[c] = make([]float64, dim)
		m.gen[c] = 1
	}
	return m
}

// PartialFit implements Model.
func (m *GaussianNB) PartialFit(ex Example) {
	checkDim(len(m.mean[0]), ex.Features, "GaussianNB")
	checkClass(len(m.mean), ex.Class, "GaussianNB")
	c := ex.Class
	m.classCount[c]++
	n := m.classCount[c]
	mean, m2 := m.mean[c], m.m2[c]
	if s := ex.Features.sparse; s != nil {
		// One ordered merge over the stored entries; absent ones are 0.
		k := 0
		for i := range mean {
			x := 0.0
			if k < len(s.Idx) && s.Idx[k] == i {
				x = s.Val[k]
				k++
			}
			delta := x - mean[i]
			mean[i] += delta / n
			m2[i] += delta * (x - mean[i])
		}
	} else {
		m2 = m2[:len(mean)]
		for i, x := range ex.Features.dense[:len(mean)] {
			delta := x - mean[i]
			mean[i] += delta / n
			m2[i] += delta * (x - mean[i])
		}
	}
	m.seen++
	m.gen[c]++
}

// refresh recomputes the score tables of the classes fitted since.
func (m *GaussianNB) refresh() {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.tab
	if t == nil {
		classes, dim := len(m.mean), len(m.mean[0])
		t = &gaussianTables{
			prior:   make([]float64, classes),
			logNorm: make([][]float64, classes),
			twoVar:  make([][]float64, classes),
			posNorm: make([]float64, classes),
			gen:     make([]uint64, classes),
		}
		for c := range t.gen {
			t.logNorm[c] = make([]float64, dim)
			t.twoVar[c] = make([]float64, dim)
		}
		m.tab = t
	}
	moved := false
	for c, g := range m.gen {
		if t.gen[c] == g {
			continue
		}
		t.gen[c], moved = g, true
		n := m.classCount[c]
		ln, tv := t.logNorm[c], t.twoVar[c]
		pos := 0.0
		for i, m2 := range m.m2[c] {
			variance := m.varFloor
			if n >= 2 {
				variance = m2/(n-1) + m.varFloor
			}
			ln[i] = -0.5 * math.Log(2*math.Pi*variance)
			tv[i] = 2 * variance
			if pos += 2 * max(ln[i], 0); !(tv[i] > 0) {
				pos = math.NaN()
			}
		}
		t.posNorm[c] = pos
	}
	if moved {
		logPriors(m.classCount, t.prior)
	}
}

// denseOf returns v's coordinates as a dense slice the caller must not
// mutate. Gaussian scoring reads every coordinate, so a sparse vector is
// materialized.
func denseOf(v FeatureVector) []float64 {
	if v.sparse != nil {
		return v.sparse.Dense()
	}
	return v.dense
}

// sumPair sums the terms logNorm − d²/twoVar, d = x − mean, of classes c0
// and c1 (which may be equal) in index order, side by side so the chains
// overlap: from the log priors the log posteriors, from zero likelihoods.
func (m *GaussianNB) sumPair(x []float64, c0, c1 int, fromPrior bool) (s0, s1 float64) {
	t := m.tab
	if fromPrior {
		s0, s1 = t.prior[c0], t.prior[c1]
	}
	n := len(x)
	mu0, ln0, tv0 := m.mean[c0][:n], t.logNorm[c0][:n], t.twoVar[c0][:n]
	mu1, ln1, tv1 := m.mean[c1][:n], t.logNorm[c1][:n], t.twoVar[c1][:n]
	for i, xi := range x {
		d0 := xi - mu0[i]
		d1 := xi - mu1[i]
		s0 += ln0[i] - d0*d0/tv0[i]
		s1 += ln1[i] - d1*d1/tv1[i]
	}
	return s0, s1
}

// predict is multinomialTables.predict over the Gaussian scores.
func (m *GaussianNB) predict(x []float64) int {
	last := len(m.mean) - 1
	best, bestC := 0.0, 0
	for c := 0; c <= last; c += 2 {
		c1 := min(c+1, last)
		s0, s1 := m.sumPair(x, c, c1, true)
		if c == 0 || s0 > best {
			best, bestC = s0, c
		}
		if s1 > best {
			best, bestC = s1, c1
		}
	}
	return bestC
}

// PredictClass implements Classifier.
func (m *GaussianNB) PredictClass(v FeatureVector) int {
	checkDim(len(m.mean[0]), v, "GaussianNB")
	m.refresh()
	return m.predict(denseOf(v))
}

// NumClasses implements Classifier.
func (m *GaussianNB) NumClasses() int { return len(m.mean) }

// Seen implements Model.
func (m *GaussianNB) Seen() int { return m.seen }
