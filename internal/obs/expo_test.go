package obs

import (
	"strings"
	"testing"
)

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs_started", "Runs accepted for execution.").Add(3)
	r.GaugeFunc("queue_depth", "Queued runs.", func() int64 { return 2 })
	h := r.HistogramL("phase_seconds", "Per-phase wall time.", "phase", "extract", []float64{0.001, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(5)

	out := scrape(t, r)
	for _, want := range []string{
		"# HELP runs_started Runs accepted for execution.",
		"# TYPE runs_started counter",
		"runs_started 3",
		"# TYPE queue_depth gauge",
		"queue_depth 2",
		"# TYPE phase_seconds histogram",
		`phase_seconds_bucket{phase="extract",le="0.001"} 1`,
		`phase_seconds_bucket{phase="extract",le="0.1"} 2`,
		`phase_seconds_bucket{phase="extract",le="+Inf"} 3`,
		`phase_seconds_sum{phase="extract"} 5.0505`,
		`phase_seconds_count{phase="extract"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestPrometheusFamilyGrouping asserts all series of one family render
// under a single HELP/TYPE header, whatever the declaration interleaving.
func TestPrometheusFamilyGrouping(t *testing.T) {
	r := NewRegistry()
	r.HistogramL("phase_seconds", "h", "phase", "extract", []float64{1})
	r.Counter("other", "")
	r.HistogramL("phase_seconds", "h", "phase", "train", []float64{1})

	out := scrape(t, r)
	if n := strings.Count(out, "# TYPE phase_seconds histogram"); n != 1 {
		t.Fatalf("family header appears %d times, want 1:\n%s", n, out)
	}
	extract := strings.Index(out, `phase="extract"`)
	train := strings.Index(out, `phase="train"`)
	header := strings.Index(out, "# TYPE phase_seconds")
	if extract < header || train < header {
		t.Fatalf("series rendered before their family header:\n%s", out)
	}
}

func TestPrometheusEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("weird", "help with \\ backslash\nand newline")
	r.HistogramL("lbl", "", "site", "a\"b\\c\nd", []float64{1})

	out := scrape(t, r)
	if !strings.Contains(out, `# HELP weird help with \\ backslash\nand newline`) {
		t.Fatalf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `site="a\"b\\c\nd"`) {
		t.Fatalf("label value not escaped:\n%s", out)
	}
	if strings.Contains(out, "\nand newline") {
		t.Fatalf("raw newline leaked into exposition:\n%s", out)
	}
}

// TestFlatHistogramProjection pins the flat-JSON shape of a histogram:
// integer count and millisecond sum under suffixed keys.
func TestFlatHistogramProjection(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramL("phase_seconds", "", "phase", "eval", []float64{1})
	h.Observe(0.5)
	h.Observe(0.25)
	flat := r.FlatSnapshot()
	if flat["phase_seconds_eval_count"] != 2 {
		t.Fatalf("flat count: %v", flat)
	}
	if flat["phase_seconds_eval_sum_ms"] != 750 {
		t.Fatalf("flat sum_ms: %v", flat)
	}
}

// TestEveryNameInBothExpositions is the package-level golden-key check:
// whatever is declared must surface in the flat map and the Prometheus
// text under its base name.
func TestEveryNameInBothExpositions(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "")
	r.GaugeL("g", "", "shard", "0")
	r.GaugeFunc("gf", "", func() int64 { return 1 })
	r.Histogram("h_seconds", "", []float64{1})
	r.HistogramL("hl_seconds", "", "phase", "x", []float64{1})

	flat := r.FlatSnapshot()
	prom := scrape(t, r)
	for _, name := range r.Names() {
		inFlat := false
		for key := range flat {
			if key == name || strings.HasPrefix(key, name+"_") {
				inFlat = true
				break
			}
		}
		if !inFlat {
			t.Errorf("metric %q missing from flat snapshot: %v", name, flat)
		}
		if !strings.Contains(prom, "# TYPE "+name+" ") {
			t.Errorf("metric %q missing from prometheus exposition", name)
		}
	}
}
