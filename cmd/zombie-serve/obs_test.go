package main

import (
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"zombie/internal/server"
)

// TestTelemetryOverHTTP is the telemetry contract end to end against the
// real binary, built with a link-time commit stamp: /healthz names the
// build, a traced run populates both /metrics expositions (the stable
// flat-JSON keys and the Prometheus TYPE and bucket lines), and the run's
// terminal trace snapshot carries events and a non-zero extract phase.
func TestTelemetryOverHTTP(t *testing.T) {
	const commit = "obstest0c0ffee"
	dir := t.TempDir()
	bin := buildServer(t, dir, "-ldflags", "-X zombie/internal/buildinfo.Commit="+commit)
	wiki := writeWiki(t, dir)
	base := "http://" + freeAddr(t)
	startServer(t, bin, []string{"-addr", base[len("http://"):], "-corpus", "wiki=" + wiki, "-log-format", "json"},
		filepath.Join(dir, "serve.log"), base)

	if got := get[map[string]any](t, base+"/healthz")["commit"]; got != commit {
		t.Fatalf("healthz commit = %v, want %s", got, commit)
	}

	spec := server.RunSpec{Corpus: "wiki", Task: "wiki", MaxInputs: 150, EvalEvery: 25, Trace: true}
	id := post[server.RunInfo](t, base+"/runs", spec, http.StatusAccepted).ID
	await(t, base, id)

	flat := get[map[string]float64](t, base+"/metrics")
	for _, key := range []string{"runs_completed", "inputs_processed", "feat_cache_hits", "queue_depth",
		"zombie_run_seconds_count", "zombie_phase_seconds_extract_count", "zombie_http_request_seconds_count"} {
		if _, ok := flat[key]; !ok {
			t.Errorf("flat /metrics lacks %s", key)
		}
	}

	resp, err := http.Get(base + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"# TYPE runs_completed counter\n", `zombie_phase_seconds_bucket{phase="extract",le="+Inf"}`} {
		if !strings.Contains(string(prom), line) {
			t.Errorf("Prometheus /metrics lacks %q", line)
		}
	}

	trace := get[struct {
		Events  []any              `json:"events"`
		PhaseMs map[string]float64 `json:"phase_ms"`
	}](t, base+"/runs/"+id+"/trace")
	if len(trace.Events) == 0 {
		t.Error("terminal trace snapshot has no events")
	}
	if trace.PhaseMs["extract"] <= 0 {
		t.Errorf("terminal trace phase_ms.extract = %v, want > 0", trace.PhaseMs["extract"])
	}
}
