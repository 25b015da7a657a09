package learner

import (
	"math"
	"sync/atomic"
)

// holdoutScores is what an Evaluator keeps of its holdout for a GaussianNB
// so that a pass re-sums only the classes fitted since the last one, and
// keeps last pass's winner where its bounds decide (DESIGN §13):
// predictions, not scores, are what is preserved.
type holdoutScores struct {
	gen          []uint64  // [class] the model generation the rows hold
	seen         []uint64  // [class] the model generation at the last pass
	exact        bool      // every class moved since the last pass
	stale        []int     // the classes this pass re-sums
	sums         []float64 // [example·classes + class] L, or +Inf if unbounded
	win          []int32   // [example] the class last predicted
	top          []float64 // [example] ≥ L of every class but win: observeBlock
	hi, lo       []float64 // [class] this pass's p ± (α|p| + βK)
	hiTop        float64   // max hi
	shrink, grow float64   // 1 ∓ β
	fallbacks    atomic.Int64
}

// Why S_c ≤ hi_c + (1−β)·L_c and S_c ≥ lo_c + (1+β)·L_c for the exact
// S = fl(…(p + t_1)… + t_n) and L = Σt_i from 0, t_i = fl(ln_i − q_i),
// q_i = fl(fl(d_i²)/tv_i) ≥ 0 (tv_i > 0, else K is NaN): with γ_n =
// n·u/(1−n·u), recursive summation gives |S − (p + L)| ≤ γ_n·|p| +
// 2γ_n·Σ|t_i|, and Σ|t_i| ≤ (K − L)(1 + O(n·u)) for the per-class K =
// posNorm = Σ(|ln_i| + ln_i), since Σq_i = Σln_i − Σ(ln_i − q_i). As
// t_i ≤ ln_i, |L| ≤ K − L, so each rounding in forming the bounds is
// within u·(|p| + K − L). That needs α ≥ (n+2)·u and β ≥ (2n+4)·u to
// first order; α, β below are twice that, and 2^-1000 covers a slack that
// underflows. An L whose K − L is NaN, infinite, negative or above 1e300
// (a partial sum could overflow) is stored as +Inf, which never wins and
// beats every candidate; NaN or ±Inf in a bound fails the strict
// comparisons, and exact ties never pass them.

// prepare implements blockClassifier: it refreshes the tables and, for an
// evaluator, builds its rows on their first pass, lists the classes to
// re-sum, and forms this pass's bounds. A one-shot pass keeps no rows.
func (m *GaussianNB) prepare(ev *Evaluator) {
	m.refresh()
	if ev == nil {
		return
	}
	classes := len(m.mean)
	if ev.rows == nil {
		n := len(ev.h.Examples)
		ev.rows = &holdoutScores{gen: make([]uint64, classes), seen: make([]uint64, classes),
			sums: make([]float64, n*classes), win: make([]int32, n), top: make([]float64, n),
			hi: make([]float64, classes), lo: make([]float64, classes)}
	}
	s := ev.rows
	moved := 0
	for c, g := range m.gen {
		if s.seen[c] != g {
			s.seen[c], moved = g, moved+1
		}
	}
	// Once every class moved, deciding exactly beats refreshing every row.
	s.exact, s.stale = moved == classes, s.stale[:0]
	for c, g := range m.gen {
		if !s.exact && s.gen[c] != g {
			s.gen[c] = g
			s.stale = append(s.stale, c)
		}
	}
	nu := float64(len(m.mean[0])+4) * 0x1p-53
	alpha, beta := 2*nu, 4*nu
	s.shrink, s.grow, s.hiTop = 1-beta, 1+beta, math.Inf(-1)
	for c, p := range m.tab.prior {
		slack := alpha*math.Abs(p) + beta*m.tab.posNorm[c] + 0x1p-1000
		s.hi[c], s.lo[c] = p+slack, p-slack
		s.hiTop = max(s.hiTop, s.hi[c])
	}
}

// observeBlock implements blockClassifier, writing only the rows of
// examples lo..hi-1. top[e] is exact after a full check, raised by every
// re-summed row, and +Inf once win[e] changes, so — rounding being
// monotone — lo[w] + grow·L_w > hiTop + shrink·top certifies in O(1).
func (m *GaussianNB) observeBlock(cm *ConfusionMatrix, h *Holdout, ev *Evaluator, lo, hi int) {
	if ev == nil || ev.rows.exact { // rows, win and top stay consistent
		for e := lo; e < hi; e++ {
			ex := &h.Examples[e]
			checkDim(len(m.mean[0]), ex.Features, "GaussianNB")
			cm.Observe(ex.Class, m.predict(denseOf(ex.Features)))
		}
		return
	}
	s, posNorm := ev.rows, m.tab.posNorm
	classes, stale := len(m.mean), s.stale
	for e := lo; e < hi; e++ {
		ex := &h.Examples[e]
		// A panic here recurs on every pass over h: no stale row is read.
		checkDim(len(m.mean[0]), ex.Features, "GaussianNB")
		x := denseOf(ex.Features)
		row := s.sums[e*classes : (e+1)*classes]
		w, top := int(s.win[e]), s.top[e]
		for k := 0; k < len(stale); k += 2 {
			c0, c1 := stale[k], stale[min(k+1, len(stale)-1)]
			l0, l1 := m.sumPair(x, c0, c1, false)
			row[c0], row[c1] = bounded(l0, posNorm[c0]), bounded(l1, posNorm[c1])
			if c0 != w && row[c0] > top {
				top = row[c0]
			}
			if c1 != w && row[c1] > top {
				top = row[c1]
			}
		}
		if !(row[w] < math.Inf(1) && s.lo[w]+s.grow*row[w] > s.hiTop+s.shrink*top) {
			var ok bool
			if top, ok = s.certify(w, row); !ok {
				w, top = m.predict(x), math.Inf(1)
				s.win[e] = int32(w)
				s.fallbacks.Add(1)
			}
		}
		s.top[e] = top
		cm.Observe(ex.Class, w)
	}
}

// bounded returns l, or +Inf when its bound (posNorm K) is not trusted.
func bounded(l, posNorm float64) float64 {
	if d := posNorm - l; d >= 0 && d <= 1e300 {
		return l
	}
	return math.Inf(1)
}

// certify reports whether class w's lower bound beats every other class's
// upper bound, so that predict would return w, and if so their largest L.
func (s *holdoutScores) certify(w int, row []float64) (top float64, ok bool) {
	lo, top := s.lo[w]+s.grow*row[w], math.Inf(-1)
	for c, l := range row {
		if c == w {
			continue
		}
		if !(row[w] < math.Inf(1) && lo > s.hi[c]+s.shrink*l) {
			return 0, false
		}
		top = max(top, l)
	}
	return top, true
}
