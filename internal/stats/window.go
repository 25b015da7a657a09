package stats

// Window is a fixed-capacity sliding window over a float64 stream with O(1)
// amortized mean queries. The bandit layer uses windows to keep arm
// reward estimates responsive when rewards are nonstationary (a group's
// marginal usefulness decays as the learner saturates on it), and the
// early-stopping detector uses one to hold the recent quality curve.
type Window struct {
	buf   []float64
	head  int
	count int
	sum   float64
}

// NewWindow returns a window holding at most capacity values. It panics if
// capacity <= 0.
func NewWindow(capacity int) *Window {
	if capacity <= 0 {
		panic("stats: Window capacity must be positive")
	}
	return &Window{buf: make([]float64, capacity)}
}

// Add pushes x, evicting the oldest value when full.
func (w *Window) Add(x float64) {
	if w.count == len(w.buf) {
		w.sum -= w.buf[w.head]
	} else {
		w.count++
	}
	w.sum += x
	w.buf[w.head] = x
	w.head = (w.head + 1) % len(w.buf)
	// Periodically rebuild the sum to bound floating-point drift.
	if w.head == 0 {
		w.recompute()
	}
}

func (w *Window) recompute() {
	s := 0.0
	for i := 0; i < w.count; i++ {
		s += w.at(i)
	}
	w.sum = s
}

// at returns the i-th oldest value (0 = oldest). Caller guarantees i < count.
func (w *Window) at(i int) float64 {
	start := w.head - w.count
	if start < 0 {
		start += len(w.buf)
	}
	return w.buf[(start+i)%len(w.buf)]
}

// Len returns the number of stored values.
func (w *Window) Len() int { return w.count }

// Full reports whether the window has reached capacity.
func (w *Window) Full() bool { return w.count == len(w.buf) }

// Mean returns the mean of the stored values, or 0 when empty.
func (w *Window) Mean() float64 {
	if w.count == 0 {
		return 0
	}
	return w.sum / float64(w.count)
}

// Values returns the stored values oldest-first in a new slice.
func (w *Window) Values() []float64 {
	out := make([]float64, w.count)
	for i := 0; i < w.count; i++ {
		out[i] = w.at(i)
	}
	return out
}
