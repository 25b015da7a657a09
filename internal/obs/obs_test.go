package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs", "requests")
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Fatalf("counter = %d, want 5", c.Load())
	}
	g := r.GaugeL("depth", "queue depth", "queue", "runs")
	g.Set(5)
	if g.Load() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Load())
	}
	r.GaugeFunc("sampled", "sampled gauge", func() int64 { return 42 })

	flat := r.FlatSnapshot()
	if flat["reqs"] != 5 || flat["depth_runs"] != 5 || flat["sampled"] != 42 {
		t.Fatalf("flat snapshot: %v", flat)
	}
}

func TestDeclarationIsIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x", "help")
	b := r.Counter("x", "other help ignored")
	if a != b {
		t.Fatal("redeclaring a counter returned a different instance")
	}
	h1 := r.HistogramL("phase", "h", "phase", "extract", LatencyBuckets)
	h2 := r.HistogramL("phase", "h", "phase", "extract", LatencyBuckets)
	if h1 != h2 {
		t.Fatal("redeclaring a labeled histogram returned a different instance")
	}
	h3 := r.HistogramL("phase", "h", "phase", "train", LatencyBuckets)
	if h3 == h1 {
		t.Fatal("distinct label values shared one histogram")
	}
	if len(r.Names()) != 2 {
		t.Fatalf("names = %v, want [phase x]", r.Names())
	}
}

func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("redeclaring a counter as a gauge did not panic")
		}
	}()
	r.GaugeFunc("x", "", func() int64 { return 0 })
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	h := r.Histogram("h", "", []float64{0.5})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if c.Load() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Load(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if got, want := h.Sum(), 0.25*workers*per; got != want {
		t.Fatalf("histogram sum = %v, want %v", got, want)
	}
}

func TestNopAndFormatLoggers(t *testing.T) {
	if _, err := NewLogger(&strings.Builder{}, "json"); err != nil {
		t.Fatal(err)
	}
	if _, err := NewLogger(&strings.Builder{}, "text"); err != nil {
		t.Fatal(err)
	}
	if _, err := NewLogger(&strings.Builder{}, "yaml"); err == nil {
		t.Fatal("bad format accepted")
	}
	NopLogger().Info("goes nowhere")
}
