// Package obs is zombie's dependency-free telemetry layer: a registry of
// named counters, gauges, and fixed-bucket latency histograms with two
// exposition formats — the flat expvar-style JSON map the service has
// always served at /metrics, and the Prometheus text format scrapers
// expect. Every subsystem declares its metrics once against a registry
// and both formats render from the same declarations, so a counter can
// no longer exist in one exposition and silently miss the other.
//
// The hot path is lock-free: counters and gauges are single atomics,
// histogram observation is two atomic adds plus a binary search over a
// fixed bound slice, and none of them allocate. The registry's mutex is
// only taken at declaration and exposition time. Metrics may carry one
// constant label (the phase histograms use phase="extract" and friends);
// full dynamic label sets are deliberately out of scope — this is an
// instrumentation layer for one process, not a metrics database.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a value that can move in both directions: Set replaces it.
type Gauge struct {
	v atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// kind discriminates registry entries.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
	kindCounterFunc
)

func (k kind) String() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Label is one constant key/value pair on a series. Labels are ordered:
// series sharing a metric name must declare their labels in the same key
// order (declaration order is the exposition order).
type Label struct {
	Key   string
	Value string
}

// metric is one registered series: a name, optional constant labels, and
// exactly one of the value holders.
type metric struct {
	name   string
	help   string
	kind   kind
	labels []Label

	counter   *Counter
	gauge     *Gauge
	gaugeFn   func() int64
	counterFn func() int64
	hist      *Histogram
}

// flatName is the metric's key (base) in the flat-JSON exposition: the
// name, with every label value folded in as a suffix in declaration
// order, so labeled series stay distinct in a flat namespace.
func (m *metric) flatName() string {
	name := m.name
	for _, l := range m.labels {
		name += "_" + l.Value
	}
	return name
}

// id is the metric's registry identity: the name plus every label value.
func (m *metric) id() string {
	id := m.name
	for _, l := range m.labels {
		id += "\x00" + l.Value
	}
	return id
}

// Registry holds declared metrics. Declaration is idempotent: declaring
// the same (name, label) twice returns the existing metric, so per-run
// code can declare unconditionally and share series across runs.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric          // declaration order
	byID    map[string]*metric // name + "\x00" + each label value
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: map[string]*metric{}}
}

// declare registers m unless its identity already exists, in which case
// the existing entry is returned. A kind clash on one identity is a
// programming error and panics at declaration time, never at scrape time.
func (r *Registry) declare(m *metric) *metric {
	id := m.id()
	r.mu.Lock()
	defer r.mu.Unlock()
	if have, ok := r.byID[id]; ok {
		if have.kind != m.kind {
			panic(fmt.Sprintf("obs: metric %q redeclared as %s (was %s)", m.name, m.kind, have.kind))
		}
		return have
	}
	r.byID[id] = m
	r.metrics = append(r.metrics, m)
	return m
}

// Counter declares (or returns the existing) counter with the given name.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.declare(&metric{name: name, help: help, kind: kindCounter, counter: &Counter{}})
	return m.counter
}

// GaugeL declares (or returns the existing) settable gauge with one
// constant label, e.g. shard="0" — the same labeling rule HistogramL
// follows: series sharing a name must share the label key, and the
// flat-JSON exposition folds the value into the key.
func (r *Registry) GaugeL(name, help, labelKey, labelValue string) *Gauge {
	m := r.declare(&metric{
		name: name, help: help, kind: kindGauge,
		labels: []Label{{labelKey, labelValue}},
		gauge:  &Gauge{},
	})
	return m.gauge
}

// CounterL is Counter with an ordered set of constant labels, e.g.
// method="step",worker="1". Series sharing a name must declare the same
// label keys in the same order; the flat-JSON exposition folds every
// value into the key suffix (dist_rpc_errors_step_1).
func (r *Registry) CounterL(name, help string, labels ...Label) *Counter {
	m := r.declare(&metric{
		name: name, help: help, kind: kindCounter,
		labels:  append([]Label(nil), labels...),
		counter: &Counter{},
	})
	return m.counter
}

// GaugeFunc declares a gauge sampled by calling fn at exposition time —
// for values owned by another structure (queue depths, cache residency).
// fn must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.declare(&metric{name: name, help: help, kind: kindGaugeFunc, gaugeFn: fn})
}

// CounterFunc declares a monotonic counter sampled by calling fn at
// exposition time — for counts owned by another structure (the extraction
// cache keeps its own hit/miss tallies). fn must be safe to call from any
// goroutine and must never decrease.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.declare(&metric{name: name, help: help, kind: kindCounterFunc, counterFn: fn})
}

// Histogram declares (or returns the existing) histogram with the given
// upper bucket bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	m := r.declare(&metric{name: name, help: help, kind: kindHistogram, hist: newHistogram(bounds)})
	return m.hist
}

// HistogramL is Histogram with one constant label, e.g. phase="extract".
// Series sharing a name must share bounds and label key; the first
// declaration wins on both.
func (r *Registry) HistogramL(name, help, labelKey, labelValue string, bounds []float64) *Histogram {
	m := r.declare(&metric{
		name: name, help: help, kind: kindHistogram,
		labels: []Label{{labelKey, labelValue}},
		hist:   newHistogram(bounds),
	})
	return m.hist
}

// Names returns the declared metric base names, sorted and deduplicated —
// the key set tests use to assert both expositions cover every metric.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := map[string]bool{}
	var names []string
	for _, m := range r.metrics {
		if !seen[m.name] {
			seen[m.name] = true
			names = append(names, m.name)
		}
	}
	sort.Strings(names)
	return names
}

// snapshot returns the metric list under the lock; values are read from
// the atomics afterwards, so a scrape never blocks a writer.
func (r *Registry) snapshot() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*metric, len(r.metrics))
	copy(out, r.metrics)
	return out
}
